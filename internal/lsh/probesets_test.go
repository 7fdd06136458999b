package lsh

// probeSets enumerates the t lowest-score perturbation sets for fracs on a
// fresh scratch, as one table of a query does, and returns each set's
// perturbations.
func (x *MPLSH) probeSets(fracs []float64, t int) [][]perturbation {
	var s searchScratch
	var out [][]perturbation
	for _, set := range s.probeSets(fracs, t) {
		var ps []perturbation
		for _, j := range s.members[set.off : set.off+set.n] {
			ps = append(ps, s.perts[j])
		}
		out = append(out, ps)
	}
	return out
}
