//go:build !purego

package vecmath

// pairArms returns the assembly passes this CPU can run, each finished in Go
// as l2SqrPair finishes it: SSE2 always, AVX2 where AVX2 holds.
func pairArms() []pairArm {
	arms := []pairArm{{"sse2", func(q []float64, a, b []float32) (float64, float64) {
		return l2SqrPairAsm(false, q, a, b)
	}}}
	if AVX2() {
		arms = append(arms, pairArm{"avx2", func(q []float64, a, b []float32) (float64, float64) {
			return l2SqrPairAsm(true, q, a, b)
		}})
	}
	return arms
}
