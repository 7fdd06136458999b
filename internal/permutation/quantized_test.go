package permutation

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vecmath"
)

// lane returns the 4-bit quantized rank in lane i of q.
func lane(q Quantized, i int) uint8 {
	return uint8(q[i/16]>>(4*(uint(i)%16))) & 0xF
}

func randomPerm(r *rand.Rand, m int) []int32 {
	perm := make([]int32, m)
	for i, v := range r.Perm(m) {
		perm[i] = int32(v)
	}
	return perm
}

func TestQuantizeLanes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 2, 15, 16, 17, 31, 32, 64, 100, 128} {
		perm := randomPerm(r, m)
		for _, prefixLen := range []int{0, 1, m / 2, m} {
			q := Quantize(perm, prefixLen, nil)
			if len(q) != QuantizedWords(prefixLen) {
				t.Fatalf("m=%d l=%d: %d words, want %d", m, prefixLen, len(q), QuantizedWords(prefixLen))
			}
			for i := 0; i < prefixLen; i++ {
				want := uint8(uint64(perm[i]) * 16 / uint64(m))
				if got := lane(q, i); got != want {
					t.Fatalf("m=%d l=%d lane %d: nibble %d, want %d (rank %d)", m, prefixLen, i, got, want, perm[i])
				}
			}
			// Tail lanes of the last word must be zero for vecmath.NibbleL1.
			for i := prefixLen; i < len(q)*16; i++ {
				if lane(q, i) != 0 {
					t.Fatalf("m=%d l=%d: tail lane %d not zero", m, prefixLen, i)
				}
			}
		}
	}
}

func TestQuantizeUsesAllLevels(t *testing.T) {
	// With m a multiple of 16 the bucket mapping is exact: each level holds
	// m/16 consecutive ranks, and all 16 levels appear.
	m := 64
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	q := Quantize(perm, m, nil)
	var seen [16]bool
	for i := 0; i < m; i++ {
		if got, want := lane(q, i), uint8(i/4); got != want {
			t.Fatalf("lane %d: nibble %d, want %d", i, got, want)
		}
		seen[lane(q, i)] = true
	}
	for lvl, ok := range seen {
		if !ok {
			t.Fatalf("quantization level %d unused", lvl)
		}
	}
}

func TestQuantizeReusesDst(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	perm := randomPerm(r, 48)
	q := Quantize(perm, 48, nil)
	// A second quantization of a shorter prefix into the same backing array
	// must fully overwrite stale lanes.
	q2 := Quantize(perm, 17, q)
	if &q[0] != &q2[0] {
		t.Fatalf("dst not reused")
	}
	want := Quantize(perm, 17, nil)
	for i := range want {
		if q2[i] != want[i] {
			t.Fatalf("word %d: reuse %#x, fresh %#x", i, q2[i], want[i])
		}
	}
}

func TestQuantizePanicsOnBadPrefix(t *testing.T) {
	perm := []int32{1, 0, 2}
	for _, l := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("prefixLen %d: no panic", l)
				}
			}()
			Quantize(perm, l, nil)
		}()
	}
}

func TestQuantizedNibbleL1(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for rep := 0; rep < 20; rep++ {
		m := 16 + r.Intn(120)
		l := r.Intn(m + 1)
		pa, pb := randomPerm(r, m), randomPerm(r, m)
		qa, qb := Quantize(pa, l, nil), Quantize(pb, l, nil)
		var want int
		for i := 0; i < l; i++ {
			d := int(lane(qa, i)) - int(lane(qb, i))
			if d < 0 {
				d = -d
			}
			want += d
		}
		if got := vecmath.NibbleL1(qa, qb); got != want {
			t.Fatalf("m=%d l=%d: NibbleL1 = %d, lane sum = %d", m, l, got, want)
		}
	}
}

// FuzzQuantizeRoundtrip drives the nibble pack/unpack roundtrip: a
// permutation built from the fuzz input is quantized, and every lane must
// unpack (lane) to the bucket formula, tail lanes must stay zero, and the
// SWAR distance of the prefix against itself and against a rotated copy
// must match the per-lane scalar sum.
func FuzzQuantizeRoundtrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 128, 64, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0])%200
		perm := make([]int32, m)
		for i := range perm {
			perm[i] = int32(i)
		}
		// Fisher-Yates driven by the fuzz bytes.
		for i := range perm {
			j := i + int(data[(i+1)%len(data)])%(m-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		prefixLen := int(data[len(data)-1]) % (m + 1)
		q := Quantize(perm, prefixLen, nil)
		for i := 0; i < prefixLen; i++ {
			if got, want := lane(q, i), uint8(uint64(perm[i])*16/uint64(m)); got != want {
				t.Fatalf("lane %d: nibble %d, want %d", i, got, want)
			}
		}
		for i := prefixLen; i < len(q)*16; i++ {
			if lane(q, i) != 0 {
				t.Fatalf("tail lane %d not zero", i)
			}
		}
		if d := vecmath.NibbleL1(q, slices.Clone(q)); d != 0 {
			t.Fatalf("self distance %d", d)
		}
		rot := append([]int32{perm[m-1]}, perm[:m-1]...)
		qr := Quantize(rot, prefixLen, nil)
		var want int
		for i := 0; i < prefixLen; i++ {
			d := int(lane(q, i)) - int(lane(qr, i))
			if d < 0 {
				d = -d
			}
			want += d
		}
		if got := vecmath.NibbleL1(q, qr); got != want {
			t.Fatalf("NibbleL1 = %d, lane sum = %d", got, want)
		}
	})
}
