package dataset

import "testing"

// BenchmarkDecode parses one query per family shape as a daemon does after
// reading the request: a 128-float SIFT vector and a 32-byte DNA read.
func BenchmarkDecode(b *testing.B) {
	b.Run("dense/128", func(b *testing.B) { benchDecode[[]float32](b, "sift") })
	b.Run("string/32", func(b *testing.B) { benchDecode[[]byte](b, "dna") })
}

func benchDecode[T any](b *testing.B, name string) {
	f, err := Typed[T](name)
	if err != nil {
		b.Fatal(err)
	}
	like := f.Gen(1, 1)[0]
	raws, err := f.Queries(7, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raws[0])))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := f.Decode(raws[0], like); err != nil {
			b.Fatal(err)
		}
	}
}
