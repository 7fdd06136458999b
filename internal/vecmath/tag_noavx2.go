//go:build noavx2

package vecmath

// noAVX2 is set by the test-only build tag noavx2: AVX2 reports false on any
// CPU, so the suite runs the SSE2 pass and the Go bodies behind every AVX2
// arm. Release builds carry no tag.
const noAVX2 = true
