//go:build !amd64 || purego

package core

// add16AVX2 is never called off amd64 or under the purego tag, where
// vecmath.AVX2 is false; it exists so that scan compiles on every GOARCH.
func add16AVX2(pl *countPlanes, in *[16]*scanWindow, nplanes int) { pl.add16(in, nplanes) }
