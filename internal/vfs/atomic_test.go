package vfs_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/vfs"
)

// TestWriteAtomic drives the one atomic writer through a fault at each of
// its steps. Whatever fails, the destination holds its complete old content
// or the complete new one, a returned error leaves no temp file behind, and
// nil is returned only once the directory fsync — the last step — succeeded.
func TestWriteAtomic(t *testing.T) {
	const oldContent, newContent = "old generation", "new generation, longer"
	// Two writes, so a fault can land on the first byte or mid-file.
	write := func(w io.Writer) error {
		if _, err := io.WriteString(w, newContent[:4]); err != nil {
			return err
		}
		_, err := io.WriteString(w, newContent[4:])
		return err
	}
	errEncode := errors.New("encoder failed")
	one := func(op faultfs.Op, nth int) *faultfs.Rule {
		return &faultfs.Rule{Ops: []faultfs.Op{op}, Nth: nth, Err: syscall.EIO}
	}
	for _, tc := range []struct {
		name  string
		rule  *faultfs.Rule
		write func(io.Writer) error
		want  string // destination content afterwards
		errIs error  // nil means WriteAtomic must succeed
	}{
		{name: "no fault", want: newContent},
		{name: "create", rule: one(faultfs.OpCreate, 1), want: oldContent, errIs: syscall.EIO},
		{name: "first write", rule: one(faultfs.OpWrite, 1), want: oldContent, errIs: syscall.EIO},
		{name: "second write", rule: one(faultfs.OpWrite, 2), want: oldContent, errIs: syscall.EIO},
		{name: "short write", rule: &faultfs.Rule{Ops: []faultfs.Op{faultfs.OpWrite}, Nth: 2, Err: syscall.ENOSPC, Short: true},
			want: oldContent, errIs: syscall.ENOSPC},
		{name: "write callback", write: func(io.Writer) error { return errEncode }, want: oldContent, errIs: errEncode},
		{name: "sync", rule: one(faultfs.OpSync, 1), want: oldContent, errIs: syscall.EIO},
		{name: "rename", rule: one(faultfs.OpRename, 1), want: oldContent, errIs: syscall.EIO},
		// From the rename on the new content is in place; a failure after it
		// still must not be reported as success — the rename may not be durable.
		{name: "syncdir", rule: one(faultfs.OpSyncDir, 1), want: newContent, errIs: syscall.EIO},
		{name: "crash after rename", rule: &faultfs.Rule{Ops: []faultfs.Op{faultfs.OpRename}, Nth: 1, Crash: true},
			want: newContent, errIs: faultfs.ErrCrashed},
	} {
		for _, existing := range []bool{true, false} {
			name := tc.name + "/fresh"
			if existing {
				name = tc.name + "/replace"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "set.json")
				if existing {
					if err := os.WriteFile(path, []byte(oldContent), 0o600); err != nil {
						t.Fatal(err)
					}
				}
				ffs := faultfs.New(nil)
				if tc.rule != nil {
					ffs.Inject(*tc.rule)
				}
				w := write
				if tc.write != nil {
					w = tc.write
				}
				err := vfs.WriteAtomic(ffs, path, w)
				if !errors.Is(err, tc.errIs) || (tc.errIs == nil) != (err == nil) {
					t.Fatalf("WriteAtomic = %v, want %v", err, tc.errIs)
				}

				got, rerr := os.ReadFile(path)
				switch {
				case tc.want == oldContent && !existing:
					if !errors.Is(rerr, os.ErrNotExist) {
						t.Fatalf("failed write created the destination: %q, %v", got, rerr)
					}
				case rerr != nil || string(got) != tc.want:
					t.Fatalf("destination holds %q (%v), want %q", got, rerr, tc.want)
				}
				if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) != 0 {
					t.Fatalf("temp files left behind: %v", tmp)
				}

				if err != nil {
					return
				}
				var ops []faultfs.Op
				for _, c := range ffs.Calls() {
					ops = append(ops, c.Op)
				}
				wantOps := []faultfs.Op{faultfs.OpCreate, faultfs.OpWrite, faultfs.OpWrite,
					faultfs.OpSync, faultfs.OpRename, faultfs.OpSyncDir}
				if !slices.Equal(ops, wantOps) {
					t.Fatalf("successful write made calls %v, want %v", ops, wantOps)
				}
				if fi, err := os.Stat(path); err != nil {
					t.Fatal(err)
				} else if fi.Mode().Perm() != 0o644 {
					t.Fatalf("destination mode %v, want 0644", fi.Mode().Perm())
				}
			})
		}
	}
}
