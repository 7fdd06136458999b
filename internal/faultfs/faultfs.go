// Package faultfs wraps a vfs.FS and injects storage faults at chosen call
// sites: the Nth fsync on WAL files fails with EIO, the next write to a
// segment file runs out of disk halfway, every read after a simulated crash
// returns an error. The mutable tier (internal/lsm) and the one atomic
// file writer (vfs.WriteAtomic) are written against the vfs boundary
// precisely so this package can probe them: the keystone fault-sweep test
// injects one fault at every injectable call across an add/seal/compact
// script and asserts the fail-stop invariants, and scripts/fault_smoke.sh
// boots the real serving daemon on a faultfs-backed tree via an env knob.
//
// # Model
//
// Every FS and File operation is a *site*, identified by its Op kind and
// the path it touches. Calls are counted per rule: a Rule fires on the Nth
// call matching its Op set and path substring (N counts from 1; 0 means
// every matching call). A firing rule normally fails just that one call —
// the single-fault model — but can instead be Sticky (every later matching
// call fails too, a dying disk) or Crash (the op *succeeds*, then the whole
// filesystem goes down, modeling a kernel panic right after, say, a rename
// barrier).
//
// The wrapper also records every injectable call it sees, so a sweep can
// run a script once fault-free to enumerate the sites and then replay it
// once per site with InjectNthCall.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/vfs"
)

// Op identifies one kind of injectable filesystem operation.
type Op string

const (
	OpOpen    Op = "open"    // Open / OpenFile without O_CREATE
	OpCreate  Op = "create"  // CreateTemp / OpenFile with O_CREATE
	OpRead    Op = "read"    // File.Read and FS.ReadFile
	OpWrite   Op = "write"   // File.Write
	OpSync    Op = "sync"    // File.Sync
	OpSyncDir Op = "syncdir" // FS.SyncDir
	OpRename  Op = "rename"  // FS.Rename
	OpRemove  Op = "remove"  // FS.Remove
)

// WriteOps are the sites whose failure can lose or tear durable state: the
// write-side sweep injects at each of these.
func WriteOps() []Op { return []Op{OpCreate, OpWrite, OpSync, OpSyncDir, OpRename} }

// ReadOps are the recovery/load-side sites: the read-side sweep injects at
// each of these.
func ReadOps() []Op { return []Op{OpOpen, OpRead} }

// ErrCrashed is returned by every operation after a Crash rule fired: the
// simulated machine is down until a fresh FS (a "reboot") is constructed
// over the same directory.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// Errs maps the spec names of the injectable errors (see Parse).
var Errs = map[string]error{
	"eio":    syscall.EIO,
	"enospc": syscall.ENOSPC,
}

// Rule selects a call site and the failure to inject there.
type Rule struct {
	// Ops are the operation kinds the rule matches; empty matches all.
	Ops []Op
	// PathContains restricts matches to paths containing the substring;
	// empty matches every path.
	PathContains string
	// Nth fires the rule on the Nth matching call (1-based). 0 fires on
	// every matching call.
	Nth int
	// Err is the injected error (required unless Crash is set).
	Err error
	// Short makes a matching write a *short* write: half the buffer is
	// written, then Err is returned — the torn-tail shape a full disk or a
	// crash mid-write leaves behind.
	Short bool
	// Sticky keeps the rule firing on every matching call after the Nth —
	// a fault that does not go away, like a dying disk.
	Sticky bool
	// Crash lets the matching call SUCCEED and then takes the whole
	// filesystem down: every subsequent operation returns ErrCrashed.
	// Models "the machine died right after the rename hit the platter".
	Crash bool
}

func (r Rule) matches(op Op, path string) bool {
	if r.PathContains != "" && !strings.Contains(path, r.PathContains) {
		return false
	}
	if len(r.Ops) == 0 {
		return true
	}
	for _, o := range r.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// Call is one observed injectable operation.
type Call struct {
	Op   Op
	Path string
}

type armedRule struct {
	Rule
	seen  int // matching calls observed so far
	fired bool
}

// FS wraps an inner vfs.FS with fault injection. Construct with New, arm
// faults with Inject/InjectNthCall, then hand it to the storage code under
// test. Safe for concurrent use.
type FS struct {
	inner vfs.FS

	mu      sync.Mutex
	rules   []*armedRule
	calls   []Call
	fired   int
	crashed bool
}

// New wraps inner (nil means the real OS filesystem) with no faults armed;
// until Inject is called it only records calls.
func New(inner vfs.FS) *FS {
	if inner == nil {
		inner = vfs.OS{}
	}
	return &FS{inner: inner}
}

// Inject arms one rule.
func (f *FS) Inject(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &armedRule{Rule: r})
}

// InjectNthCall arms a rule that fails the nth injectable call (1-based,
// in the order Calls records them) whose op is in ops, regardless of path.
// This is the sweep primitive: enumerate with a fault-free run, then fail
// site i of the same script.
func (f *FS) InjectNthCall(n int, err error, ops ...Op) {
	f.Inject(Rule{Ops: ops, Nth: n, Err: err})
}

// Calls returns every injectable call observed so far, in order.
func (f *FS) Calls() []Call {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Call, len(f.calls))
	copy(out, f.calls)
	return out
}

// CountCalls returns how many observed calls match the given ops (all ops
// when none are given).
func (f *FS) CountCalls(ops ...Op) int {
	n := 0
	for _, c := range f.Calls() {
		if len(ops) == 0 {
			n++
			continue
		}
		for _, op := range ops {
			if c.Op == op {
				n++
				break
			}
		}
	}
	return n
}

// Fired reports how many times any rule injected a fault.
func (f *FS) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// check records the call and decides the injected outcome: err is the
// injected failure (nil for none), short means "perform half the write
// then return err", crashAfter means "perform the op, then go down".
func (f *FS) check(op Op, path string) (err error, short, crashAfter bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fmt.Errorf("%w: %s %s", ErrCrashed, op, path), false, false
	}
	f.calls = append(f.calls, Call{Op: op, Path: path})
	for _, r := range f.rules {
		if !r.matches(op, path) {
			continue
		}
		r.seen++
		fire := false
		switch {
		case r.Nth == 0:
			fire = true
		case r.seen == r.Nth:
			fire = true
		case r.seen > r.Nth && r.Sticky:
			fire = true
		}
		if !fire {
			continue
		}
		r.fired = true
		f.fired++
		if r.Crash {
			f.crashed = true
			return nil, false, true
		}
		e := r.Err
		if e == nil {
			e = syscall.EIO
		}
		return fmt.Errorf("faultfs: injected %s on %s %s: %w", errName(e), op, path, e), r.Short, false
	}
	return nil, false, false
}

func errName(err error) string {
	switch {
	case errors.Is(err, syscall.ENOSPC):
		return "ENOSPC"
	case errors.Is(err, syscall.EIO):
		return "EIO"
	default:
		return err.Error()
	}
}

// --- FS interface ---

func (f *FS) Open(name string) (vfs.File, error) {
	if err, _, _ := f.check(OpOpen, name); err != nil {
		return nil, err
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

func (f *FS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	op := OpOpen
	if flag&syscall.O_CREAT != 0 {
		op = OpCreate
	}
	if err, _, _ := f.check(op, name); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

func (f *FS) CreateTemp(dir, pattern string) (vfs.File, error) {
	if err, _, _ := f.check(OpCreate, dir+"/"+pattern); err != nil {
		return nil, err
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if err, _, _ := f.check(OpRead, name); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FS) Rename(oldpath, newpath string) error {
	err, _, crashAfter := f.check(OpRename, newpath)
	if err != nil {
		return err
	}
	rerr := f.inner.Rename(oldpath, newpath)
	_ = crashAfter // the crash flag is already set; later ops fail
	return rerr
}

func (f *FS) Remove(name string) error {
	if err, _, _ := f.check(OpRemove, name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Chmod is not an injectable site: a chmod failure neither loses data nor
// tears a file, and counting it would bloat the sweep for nothing.
func (f *FS) Chmod(name string, mode fs.FileMode) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return fmt.Errorf("%w: chmod %s", ErrCrashed, name)
	}
	return f.inner.Chmod(name, mode)
}

// MkdirAll is likewise not an injectable site (it happens once, at Open,
// before any data is at risk).
func (f *FS) MkdirAll(path string, perm fs.FileMode) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return fmt.Errorf("%w: mkdir %s", ErrCrashed, path)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, fmt.Errorf("%w: readdir %s", ErrCrashed, name)
	}
	return f.inner.ReadDir(name)
}

func (f *FS) SyncDir(dir string) error {
	err, _, crashAfter := f.check(OpSyncDir, dir)
	if err != nil {
		return err
	}
	serr := f.inner.SyncDir(dir)
	_ = crashAfter
	return serr
}

var _ vfs.FS = (*FS)(nil)

// --- File wrapper ---

type file struct {
	fs    *FS
	inner vfs.File
}

func (f *file) Name() string { return f.inner.Name() }

func (f *file) Read(p []byte) (int, error) {
	if err, _, _ := f.fs.check(OpRead, f.inner.Name()); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *file) Write(p []byte) (int, error) {
	err, short, crashAfter := f.fs.check(OpWrite, f.inner.Name())
	if err != nil {
		if short && len(p) > 0 {
			n, _ := f.inner.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	n, werr := f.inner.Write(p)
	_ = crashAfter
	return n, werr
}

func (f *file) Sync() error {
	err, _, crashAfter := f.fs.check(OpSync, f.inner.Name())
	if err != nil {
		return err
	}
	serr := f.inner.Sync()
	_ = crashAfter
	return serr
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	return f.inner.Seek(offset, whence)
}

func (f *file) Truncate(size int64) error {
	f.fs.mu.Lock()
	crashed := f.fs.crashed
	f.fs.mu.Unlock()
	if crashed {
		return fmt.Errorf("%w: truncate %s", ErrCrashed, f.inner.Name())
	}
	return f.inner.Truncate(size)
}

// Close always reaches the inner file: leaking OS file handles because the
// simulated disk died would make the *test harness* flaky, and close-time
// write-back failures are modeled by OpSync/OpWrite rules instead.
func (f *file) Close() error { return f.inner.Close() }

// --- Spec parsing (the permserve env knob) ---

// Parse builds an FS over the OS filesystem from a comma-separated rule
// spec, the form scripts/fault_smoke.sh passes through the PERMSERVE_FAULT_FS
// environment variable:
//
//	op:pathsubstr:n:err[:flags]
//
// op is one of open|create|read|write|sync|syncdir|rename|remove|any;
// pathsubstr restricts matching paths (empty = all); n is the 1-based
// matching-call ordinal (0 = every matching call); err is eio|enospc|short
// (short implies enospc with a half-written buffer) or crash. flags is an
// optional "sticky".
//
//	sync:wal-:3:eio          the 3rd fsync of a WAL segment fails with EIO
//	write:.seg:1:short       the 1st segment write is short (torn)
//	sync:wal-:2:eio:sticky   the 2nd and every later WAL fsync fails
//	rename:tiers.json:1:crash  the machine dies right after a manifest rename
func Parse(spec string) (*FS, error) {
	f := New(nil)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 4 || len(fields) > 5 {
			return nil, fmt.Errorf("faultfs: rule %q: want op:pathsubstr:n:err[:flags]", part)
		}
		var r Rule
		switch op := Op(fields[0]); op {
		case "any":
		case OpOpen, OpCreate, OpRead, OpWrite, OpSync, OpSyncDir, OpRename, OpRemove:
			r.Ops = []Op{op}
		default:
			return nil, fmt.Errorf("faultfs: rule %q: unknown op %q", part, fields[0])
		}
		r.PathContains = fields[1]
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("faultfs: rule %q: bad call ordinal %q", part, fields[2])
		}
		r.Nth = n
		switch fields[3] {
		case "eio":
			r.Err = syscall.EIO
		case "enospc":
			r.Err = syscall.ENOSPC
		case "short":
			r.Err = syscall.ENOSPC
			r.Short = true
		case "crash":
			r.Crash = true
		default:
			return nil, fmt.Errorf("faultfs: rule %q: unknown error %q (want eio|enospc|short|crash)", part, fields[3])
		}
		if len(fields) == 5 {
			if fields[4] != "sticky" {
				return nil, fmt.Errorf("faultfs: rule %q: unknown flag %q", part, fields[4])
			}
			r.Sticky = true
		}
		f.Inject(r)
	}
	return f, nil
}
