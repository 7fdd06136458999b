//go:build !purego

package core

// add16AVX2 is countPlanes.add16 in 256-bit lanes (napp_scan_amd64.s), with
// the same result. Call it only when vecmath.AVX2 holds.
//
//go:noescape
func add16AVX2(pl *countPlanes, in *[16]*scanWindow, nplanes int)
