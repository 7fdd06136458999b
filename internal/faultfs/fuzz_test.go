package faultfs

import "testing"

// FuzzParse: Parse reads the PERMSERVE_FAULT_FS environment variable, text
// this package did not write. Any spec must be refused or armed without a
// panic.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"sync:wal-:2:eio:sticky, write:.seg:1:short",
		"rename:tiers.json:1:crash",
		"any::0:enospc",
		" , ",
		"sync:wal-:-1:eio",
		"sync:wal-:99999999999999999999:eio",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if fs, err := Parse(spec); err == nil && fs == nil {
			t.Fatalf("Parse(%q) accepted the spec but returned no FS", spec)
		}
	})
}
