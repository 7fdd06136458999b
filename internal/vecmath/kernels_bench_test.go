package vecmath

// Per-width microbenchmarks behind the kernel dispatch thresholds
// (rhoUnrollMin): run with
//
//	go test -run '^$' -bench 'Kernels|NibbleL1' ./internal/vecmath/
//
// and move a threshold when the crossover moves. The widths cover the
// parameter range the indexes actually use (permutation lengths 16..256,
// SIFT-style 128-dim vectors) plus the unrolled loops' tail cases.

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchWidths = []int{4, 8, 16, 32, 64, 128, 129, 256}

var sinkInt64 int64
var sinkInt int
var sinkF64 float64

func benchRankPair(width int) (a, b []int32) {
	r := rand.New(rand.NewSource(int64(width)))
	return rankVectors(r, width)
}

func BenchmarkRankKernels(b *testing.B) {
	for _, w := range benchWidths {
		x, y := benchRankPair(w)
		b.Run(benchName("rho", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt64 = SpearmanRho(x, y)
			}
		})
		b.Run(benchName("rho-ref", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt64 = SpearmanRhoRef(x, y)
			}
		})
		b.Run(benchName("footrule", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt64 = Footrule(x, y)
			}
		})
		b.Run(benchName("footrule-ref", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt64 = FootruleRef(x, y)
			}
		})
	}
}

func BenchmarkNibbleL1(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	for _, lanes := range []int{16, 32, 64, 128} {
		av := make([]uint8, lanes)
		bv := make([]uint8, lanes)
		for i := range av {
			av[i] = uint8(r.Intn(16))
			bv[i] = uint8(r.Intn(16))
		}
		x, y := packNibbles(av), packNibbles(bv)
		b.Run(benchName("swar", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = NibbleL1(x, y)
			}
		})
		b.Run(benchName("ref", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = nibbleL1Ref(x, y)
			}
		})
	}
}

func benchName(kernel string, width int) string {
	return fmt.Sprintf("%s/w=%d", kernel, width)
}
