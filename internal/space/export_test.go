package space

// EditArms returns the two bodies that measure four texts against the
// prepared pattern pat (1–64 bytes) for the external benchmarks: two editPair
// passes, and one editQuad pass, which is nil where quadPass does not hold.
func EditArms(pat []byte) (pair, quad func(t *[4][]byte) [4]int) {
	var s Scratch
	peq, m := s.prepare(pat), len(pat)
	pair = func(t *[4][]byte) (d [4]int) {
		d[0], d[1] = editPair(peq, m, t[0], t[1])
		d[2], d[3] = editPair(peq, m, t[2], t[3])
		return d
	}
	if quadPass {
		quad = func(t *[4][]byte) [4]int { return editQuad(peq, m, t) }
	}
	return pair, quad
}
