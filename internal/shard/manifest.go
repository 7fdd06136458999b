package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/persist"
	"repro/internal/vfs"
)

// SetSchema tags the shard-set manifest format; bump on incompatible
// change, mirroring the internal/codec versioning policy (readers reject
// unknown schemas, there is no migration — a set is simply re-split).
const SetSchema = "permsearch-shardset/v1"

// SetManifestExt is the conventional file name suffix of a shard-set
// manifest, written next to the per-shard directories.
const SetManifestExt = ".shardset.json"

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
	// serving sidecar manifest (server.Manifest): the corpus is
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
	// itself stores (see persist.FileChecksum for why a whole-file CRC
	// is the same constant for every valid file) — so a shipped shard
	// can be verified without loading it.
	CRC32C uint32 `json:"crc32c"`
}

// FileChecksum is persist.FileChecksum: the CRC-32C of an index file's
// contents excluding its trailer (the value the trailer itself stores —
// see that function for why a whole-file CRC cannot distinguish valid
// index files). Re-exported here so shard-set producers and verifiers
// need only this package.
func FileChecksum(path string) (uint32, error) {
	return persist.FileChecksum(path)
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
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, m.Set+SetManifestExt)
	err = vfs.WriteAtomic(vfs.OS{}, path, func(w io.Writer) error {
		_, err := w.Write(append(blob, '\n'))
		return err
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// ReadSetManifest parses and validates a shard-set manifest.
func ReadSetManifest(path string) (*SetManifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m SetManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
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
		sum, err := persist.FileChecksum(filepath.Join(dir, s.File))
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
// manifest. The sidecar is a server.Manifest, decoded structurally here
// (the server package sits above this one).
func (m *SetManifest) verifySidecar(dir string, s SetShard) error {
	blob, err := os.ReadFile(filepath.Join(dir, s.Manifest))
	if err != nil {
		return fmt.Errorf("shard %d: %w", s.Index, err)
	}
	var side struct {
		Dataset    string `json:"dataset"`
		Seed       int64  `json:"seed"`
		N          int    `json:"n"`
		Generation int64  `json:"generation"`
		Shard      *Info  `json:"shard"`
	}
	if err := json.Unmarshal(blob, &side); err != nil {
		return fmt.Errorf("shard %d: %s: %v", s.Index, s.Manifest, err)
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
