//go:build !amd64 || purego

package space

// quadPass is false: the four-lane pass is amd64 assembly, and editPair
// measures two texts per pass everywhere else.
const quadPass = false

// quadAsm is false: editQuadSteps is the Go loop below.
const quadAsm = false

// editQuadSteps is the AVX2 pass's Go form, lane by lane; editClosest and
// editMany never call it off amd64, and it lets editQuad compile.
func editQuadSteps(peq *[256]uint64, st *quadState, t *[4][]byte, from, to int) {
	for i := range t {
		for _, c := range t[i][from:to] {
			st.pv[i], st.mv[i], _ = myersStep(peq[c], st.pv[i], st.mv[i], 0)
		}
	}
}
