package shard

import (
	"fmt"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/vfs"
)

// SetSchema tags the shard-set manifest format; bump on incompatible
// change, mirroring the internal/codec versioning policy (readers reject
// unknown schemas, there is no migration — a set is simply re-split).
const SetSchema = "permsearch-shardset/v1"

// SetManifestExt is the conventional file name suffix of a shard-set
// manifest, written next to the per-shard directories.
const SetManifestExt = ".shardset.json"

// Sidecar is the serving sidecar JSON (<name>.json next to <name>.psix)
// that tells the server how to materialize the corpus an index file was
// built over. The codec format deliberately persists derived structure only,
// never the data objects, so the data must be regenerated — deterministically,
// from the named synthetic generator, its seed and its size. The space itself
// needs no entry: every distance in this repository is a parameterless value
// reconstructable from the file header's space tag. shardsplit and permserve
// write it (server.WriteIndex), the server reads it, and
// SetManifest.VerifyFiles checks it against the set.
type Sidecar struct {
	// Dataset names the generator: any name dataset.Lookup resolves.
	Dataset string `json:"dataset"`
	// Seed and N parameterize the generator: the *full* corpus is
	// gen(Seed, N). Without a Shard stamp, N must equal the data-set size
	// recorded in the index file header, or loading fails — a mismatched
	// sidecar can never serve an index whose ids point at the wrong
	// objects. With a Shard stamp the index was built over the stamp's
	// deterministic subset of gen(Seed, N), and the header must record
	// the subset size instead.
	Seed int64 `json:"seed"`
	N    int   `json:"n"`
	// Shard, when present, marks this index as one shard of a
	// partitioned corpus (written by cmd/shardsplit): the served corpus
	// is the stamp's subset, and every result id is translated back to
	// its corpus-global id on the way out, so a scatter-gather router can
	// merge per-shard answers without any per-process id state.
	Shard *Info `json:"shard,omitempty"`
	// Generation orders successive builds of the same index (snapshot
	// shipping bumps it); surfaced in /v1/indexes so a
	// rollout driver can observe which generation each process serves.
	Generation int64 `json:"generation,omitempty"`
	// Params are query-time method params resolved once at load by
	// index.Resolve (index.NamedParams keys, e.g. {"gamma": 0.05}); they become
	// the index's serving defaults, which a request's own params overlay
	// key by key.
	Params map[string]float64 `json:"params,omitempty"`
	// Mutable opens a WAL-backed LSM tree (internal/lsm) in <name>.tiers/
	// next to the index file and enables POST add/delete/flush: the .psix
	// serves as the immutable base corpus, writes land in the tree, and
	// searches scatter-gather base + sealed tiers + memtable. Incompatible
	// with Shard (a sharded corpus is repartitioned offline, not mutated in
	// place).
	Mutable bool `json:"mutable,omitempty"`
}

// SetManifest is the top-level description of one sharded index set: which
// corpus was split, how, and the exact bytes each shard serves. It is the
// unit snapshot shipping moves between builder and serving hosts — the CRCs
// let a receiving host verify every shard file before pointing a reload at
// it, and Generation orders successive rebuilds of the same set.
type SetManifest struct {
	// Schema is always SetSchema.
	Schema string `json:"schema"`
	// Set names the shard set; per-shard index files share this name.
	Set string `json:"set"`
	// Kind is the index kind tag built on every shard (codec kind).
	Kind string `json:"kind"`
	// Dataset, Seed and N identify the *full* corpus exactly as in the
	// serving Sidecar: the corpus is
	// gen(Seed, N) and each shard holds a Partitioner-selected subset.
	Dataset string `json:"dataset"`
	Seed    int64  `json:"seed"`
	N       int    `json:"n"`
	// Partitioner is the id→shard assignment of the whole set.
	Partitioner Partitioner `json:"partitioner"`
	// Generation orders rebuilds of the set; a router or shipping driver
	// treats a higher generation as the newer snapshot.
	Generation int64 `json:"generation"`
	// Shards lists the per-shard artifacts, indexed by shard position.
	Shards []SetShard `json:"shards"`
}

// SetShard describes one shard's on-disk artifacts, with paths relative to
// the manifest's directory.
type SetShard struct {
	// Index is the shard position s in [0, len(Shards)).
	Index int `json:"index"`
	// File is the relative path of the shard's .psix index file.
	File string `json:"file"`
	// Manifest is the relative path of its serving sidecar (.json).
	Manifest string `json:"manifest"`
	// N is the shard corpus size (the index file header's n).
	N int `json:"n"`
	// CRC32C is the Castagnoli checksum of the index file's contents
	// excluding its 4-byte trailer — i.e. the value the codec trailer
	// itself stores (see codec.FileChecksum for why a whole-file CRC
	// is the same constant for every valid file) — so a shipped shard
	// can be verified without loading it.
	CRC32C uint32 `json:"crc32c"`
}

// Validate checks the manifest's internal consistency: schema, partitioner,
// contiguous shard indexes, and per-shard sizes summing to N.
func (m *SetManifest) Validate() error {
	if m.Schema != SetSchema {
		return fmt.Errorf("shard: manifest schema %q, want %q", m.Schema, SetSchema)
	}
	if _, err := ParsePartitioner(string(m.Partitioner)); err != nil {
		return err
	}
	if m.Set == "" {
		return fmt.Errorf("shard: manifest has empty set name")
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: manifest lists no shards")
	}
	total := 0
	for i, s := range m.Shards {
		if s.Index != i {
			return fmt.Errorf("shard: manifest shard %d records index %d", i, s.Index)
		}
		if s.File == "" || s.Manifest == "" {
			return fmt.Errorf("shard: manifest shard %d missing file paths", i)
		}
		total += s.N
	}
	if total != m.N {
		return fmt.Errorf("shard: shard sizes sum to %d, corpus n is %d", total, m.N)
	}
	return nil
}

// WriteSetManifest validates m and writes it as <dir>/<set>.shardset.json,
// returning the path written. The write is atomic and durable
// (vfs.WriteAtomic): a crash mid-write can never leave a torn manifest where
// a good one used to be — the set either advances to the new generation or
// keeps the old one.
func WriteSetManifest(dir string, m *SetManifest) (string, error) {
	m.Schema = SetSchema
	if err := m.Validate(); err != nil {
		return "", err
	}
	path := filepath.Join(dir, m.Set+SetManifestExt)
	if err := vfs.WriteJSON(vfs.OS{}, path, m); err != nil {
		return "", err
	}
	return path, nil
}

// ReadSetManifest parses and validates a shard-set manifest.
func ReadSetManifest(path string) (*SetManifest, error) {
	var m SetManifest
	if err := vfs.ReadJSON(vfs.OS{}, path, &m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// VerifyFiles re-checksums every shard index file against the manifest and
// cross-checks each shard's serving sidecar, resolving relative paths
// against the manifest's directory dir. It returns the first mismatch —
// the pre-flight a serving host (or rollout driver) runs after a snapshot
// ships and before it reloads. Beyond torn bytes (CRC), it catches
// generation skew: a sidecar left over from an older build, or one whose
// corpus identity or shard stamp contradicts the set, would load cleanly
// and silently serve the wrong generation's answers.
func (m *SetManifest) VerifyFiles(dir string) error {
	for _, s := range m.Shards {
		sum, err := codec.FileChecksum(filepath.Join(dir, s.File))
		if err != nil {
			return fmt.Errorf("shard %d: %w", s.Index, err)
		}
		if sum != s.CRC32C {
			return fmt.Errorf("shard %d: %s has crc32c %08x, manifest records %08x (torn or stale ship?)",
				s.Index, s.File, sum, s.CRC32C)
		}
		if err := m.verifySidecar(dir, s); err != nil {
			return err
		}
	}
	return nil
}

// verifySidecar checks one shard's serving sidecar against the set
// manifest.
func (m *SetManifest) verifySidecar(dir string, s SetShard) error {
	var side Sidecar
	if err := vfs.ReadJSON(vfs.OS{}, filepath.Join(dir, s.Manifest), &side); err != nil {
		return fmt.Errorf("shard %d: %w", s.Index, err)
	}
	if side.Generation != m.Generation {
		return fmt.Errorf("shard %d: generation skew: sidecar %s records generation %d, set manifest records %d (stale sidecar?)",
			s.Index, s.Manifest, side.Generation, m.Generation)
	}
	if side.Dataset != m.Dataset || side.Seed != m.Seed || side.N != m.N {
		return fmt.Errorf("shard %d: sidecar %s describes corpus %s/seed %d/n %d, set manifest %s/seed %d/n %d",
			s.Index, s.Manifest, side.Dataset, side.Seed, side.N, m.Dataset, m.Seed, m.N)
	}
	if side.Shard == nil {
		// A single-shard set is the unsharded baseline, written unstamped
		// by design; a multi-shard sidecar without a stamp would serve
		// global ids for a subset corpus.
		if len(m.Shards) == 1 {
			return nil
		}
		return fmt.Errorf("shard %d: sidecar %s carries no shard stamp", s.Index, s.Manifest)
	}
	if side.Shard.Set != m.Set || side.Shard.Partitioner != m.Partitioner ||
		side.Shard.Shards != len(m.Shards) || side.Shard.Index != s.Index {
		return fmt.Errorf("shard %d: sidecar %s stamp %+v contradicts the set manifest (set %s, %s over %d shards)",
			s.Index, s.Manifest, *side.Shard, m.Set, m.Partitioner, len(m.Shards))
	}
	return nil
}
