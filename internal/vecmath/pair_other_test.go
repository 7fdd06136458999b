//go:build !amd64

package vecmath

// pairArms returns no assembly passes: this GOARCH has none.
func pairArms() []pairArm { return nil }
