package vecmath

import "testing"

// TestAVX2Usable holds the CPU check to the cases no one machine can reach by
// running: each of its four conditions failing alone, and all of them met.
func TestAVX2Usable(t *testing.T) {
	const ecx1, xcr0, ebx7 = cpuidOSXSAVE | cpuidAVX, xcr0SSEAVX, cpuidAVX2
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, xcr0, ebx7 uint32
		want                      bool
	}{
		{"everything set", 7, ecx1, xcr0, ebx7, true},
		{"everything set, more bits and leaves", 0x1f, ^uint32(0), 0xe7, ^uint32(0), true},
		{"max leaf below 7", 6, ecx1, xcr0, ebx7, false},
		{"AVX without OSXSAVE", 7, cpuidAVX, xcr0, ebx7, false},
		{"OSXSAVE without AVX", 7, cpuidOSXSAVE, xcr0, ebx7, false},
		{"XCR0 without the YMM bit", 7, ecx1, 1<<1 | 1<<0, ebx7, false},
		{"XCR0 without the XMM bit", 7, ecx1, 1<<2 | 1<<0, ebx7, false},
		{"AVX2 bit clear", 7, ecx1, xcr0, ^uint32(cpuidAVX2), false},
		{"nothing set", 0, 0, 0, 0, false},
	} {
		if got := avx2Usable(c.maxLeaf, c.ecx1, c.xcr0, c.ebx7); got != c.want {
			t.Errorf("%s: avx2Usable(%#x, %#x, %#x, %#x) = %v, want %v",
				c.name, c.maxLeaf, c.ecx1, c.xcr0, c.ebx7, got, c.want)
		}
	}
}

// TestArmNamesAVX2 checks that the arm the process reports is the one
// AVX2 selects.
func TestArmNamesAVX2(t *testing.T) {
	if arm := Arm(); AVX2() != (arm == "avx2") {
		t.Fatalf("Arm() = %q but AVX2() = %v", arm, AVX2())
	}
}
