//go:build !purego

package space

import "repro/internal/vecmath"

// quadPass is whether editClosest and editMany measure four texts per pass
// (editQuad): where the CPU runs AVX2 (vecmath.AVX2), decided once at start.
var quadPass = vecmath.AVX2()

// quadAsm is whether editQuadSteps is the AVX2 assembly, which only a CPU
// with AVX2 may run.
const quadAsm = true

// editQuadSteps advances the four lanes of st past the text bytes at
// positions from to to-1 of t[0] to t[3] (editquad_amd64.s): myersStep, one
// 64-bit lane of a YMM register per text. Each t[i] must be at least to
// bytes long. Call it only when quadPass.
//
//go:noescape
func editQuadSteps(peq *[256]uint64, st *quadState, t *[4][]byte, from, to int)
