//go:build !noavx2

package vecmath

// noAVX2 is false: AVX2 holds wherever the CPU and OS run it
// (tag_noavx2.go).
const noAVX2 = false
