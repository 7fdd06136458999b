//go:build !amd64 || purego

package vecmath

// pairArms returns no assembly passes: this GOARCH has none, or the purego
// tag leaves them out.
func pairArms() []pairArm { return nil }
