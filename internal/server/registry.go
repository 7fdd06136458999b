package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/vfs"
)

// Registry is the named-index set a server process holds: one entry per
// index file found at startup. The entry set is fixed for the life of the
// process (adding an index means restarting or running another process
// behind the router); what an entry *serves* is hot-swappable via Reload.
type Registry struct {
	entries map[string]*entry
	names   []string // sorted
}

// entry is one named index: the current snapshot and what outlives any one
// generation of its file.
type entry struct {
	name     string
	path     string // the .psix file
	manifest string // its sidecar
	snap     atomic.Pointer[snapshot]
	// reloadMu serializes reloads of this entry. Searches never touch it:
	// they resolve snap once and run on that generation.
	reloadMu sync.Mutex
	// tree is the mutable serving tier (manifest "mutable": true), nil for
	// an immutable entry. Unlike snap it persists across reloads: a reload
	// swaps the base index generation under the same tree, so acknowledged
	// writes survive. Writes hold ingestMu shared for their whole
	// append+ack; Reload holds it exclusively across its unsealed-writes
	// check and snapshot swap (see internal/server/mutable.go).
	tree     servedTree
	ingestMu sync.RWMutex
	// fs is the filesystem the entry's mutable tree does its disk I/O
	// through (vfs.OS in production; a faultfs in fault drills). Immutable
	// snapshot loading reads via package persist directly and is unaffected.
	fs vfs.FS
}

// snapshot is one loaded generation of an entry. A reload builds a complete
// new snapshot and swaps the pointer; in-flight queries keep answering on
// the generation they resolved, so a swap never tears a search.
type snapshot struct {
	served servedIndex
	hdr    codec.Header
	man    Manifest
	// params are the manifest's method params, resolved once at load: the
	// serving defaults every query of this generation starts from.
	params index.Params
}

// OpenDir loads every index file (*.psix) in dir into a registry. Each file
// must have a sidecar manifest named <base>.json describing its corpus (see
// Manifest). Any unreadable file, missing sidecar or failed load aborts the
// whole set — a daemon either serves everything it was pointed at or
// refuses to start.
func OpenDir(dir string) (*Registry, error) {
	return OpenDirFS(dir, nil)
}

// OpenDirFS is OpenDir with an explicit storage filesystem for the mutable
// tier: every entry's LSM tree (WAL, segments, manifest) does its disk I/O
// through storage. nil means the real OS filesystem. The fault-injection
// harness (internal/faultfs, scripts/fault_smoke.sh) is the intended
// non-nil caller.
func OpenDirFS(dir string, storage vfs.FS) (*Registry, error) {
	if storage == nil {
		storage = vfs.OS{}
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	r := &Registry{entries: map[string]*entry{}}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), persist.Ext) {
			continue
		}
		name := strings.TrimSuffix(de.Name(), persist.Ext)
		e := &entry{
			name:     name,
			path:     filepath.Join(dir, de.Name()),
			manifest: filepath.Join(dir, name+".json"),
			fs:       storage,
		}
		snap, err := loadSnapshot(e)
		if err != nil {
			r.Close() // trees opened for earlier entries hold WAL handles
			return nil, fmt.Errorf("index %q: %w", name, err)
		}
		e.snap.Store(snap)
		r.entries[name] = e
		r.names = append(r.names, name)
	}
	if len(r.entries) == 0 {
		return nil, fmt.Errorf("no index files (*%s) in %s", persist.Ext, dir)
	}
	sort.Strings(r.names)
	return r, nil
}

// Close releases every entry's mutable tree (WAL file handles, background
// compaction). Searches over immutable snapshots are unaffected; writes
// fail after Close. Safe to call on a partially built registry.
func (r *Registry) Close() error {
	var first error
	for _, e := range r.entries {
		if e.tree == nil {
			continue
		}
		if err := e.tree.Close(); err != nil && first == nil {
			first = fmt.Errorf("index %q: %w", e.name, err)
		}
	}
	return first
}

// loadSnapshot reads the entry's manifest and index file into a fresh
// snapshot, touching nothing shared — the caller decides when to swap.
func loadSnapshot(e *entry) (*snapshot, error) {
	man, err := readManifest(e.manifest)
	if err != nil {
		return nil, err
	}
	served, hdr, err := loadServed(e, man)
	if err != nil {
		return nil, err
	}
	params, err := index.Resolve(hdr.Kind, index.NamedParams(man.Params))
	if err != nil {
		return nil, fmt.Errorf("%s: manifest params: %w", e.path, err)
	}
	return &snapshot{served: served, hdr: hdr, man: man, params: params}, nil
}

// WriteIndex writes one servable entry into dir: idx as <name>.psix and man
// as its sidecar <name>.json, indented with a final newline. Each file is
// written atomically, the index first, so a crash between the two never
// leaves a servable index beside a torn sidecar. It returns both paths.
func WriteIndex[T any](dir, name string, idx index.Index[T], man Manifest) (file, manifest string, err error) {
	file, manifest = filepath.Join(dir, name+persist.Ext), filepath.Join(dir, name+".json")
	if err := persist.SaveFile(file, idx); err != nil {
		return "", "", err
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", "", err
	}
	if err := vfs.WriteAtomic(vfs.OS{}, manifest, func(w io.Writer) error {
		_, err := w.Write(append(blob, '\n'))
		return err
	}); err != nil {
		return "", "", err
	}
	return file, manifest, nil
}

// readManifest parses one sidecar file.
func readManifest(path string) (Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{}, fmt.Errorf("missing sidecar manifest %s (every .psix needs one; see server.Manifest)", path)
		}
		return Manifest{}, err
	}
	var man Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return Manifest{}, fmt.Errorf("%s: %v", path, err)
	}
	return man, nil
}

// Names lists the registry's index names, sorted.
func (r *Registry) Names() []string { return r.names }

// get returns the named entry, or nil.
func (r *Registry) get(name string) *entry { return r.entries[name] }

// errUnsealedWrites marks a reload refused because the entry's mutable
// tree still holds writes only its WAL makes durable; the caller flushes
// (sealing them into a tier) and retries. Answered 409, not 500.
var errUnsealedWrites = errors.New("unsealed writes pending")

// Reload re-reads the named index's manifest and file from disk and swaps
// the new generation in atomically. In-flight queries finish on the old
// snapshot; new queries see the new one; nothing is ever served
// half-loaded. On failure the old snapshot stays live and the error is
// returned — reloading a bad file is a no-op, not an outage.
//
// For a mutable entry, Reload excludes writes for its whole duration (they
// answer 409 meanwhile) and refuses to run at all while the memtable holds
// unsealed writes: the new snapshot must go live against a tree whose
// state is fully sealed, so a reload can never race an acknowledgement.
func (r *Registry) Reload(name string) (codec.Header, error) {
	e := r.get(name)
	if e == nil {
		return codec.Header{}, fmt.Errorf("no index %q", name)
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	if e.tree != nil {
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		if n := e.tree.Unsealed(); n > 0 {
			return codec.Header{}, fmt.Errorf("index %q has %d unsealed writes (POST .../flush first): %w", name, n, errUnsealedWrites)
		}
	}
	snap, err := loadSnapshot(e)
	if err != nil {
		return codec.Header{}, err
	}
	e.snap.Store(snap)
	return snap.hdr, nil
}
