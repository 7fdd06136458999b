// Package shard is the offline half of the sharded serving tier: it
// partitions a corpus of n points into S disjoint shard corpora
// deterministically, so an index can be built per shard (by cmd/shardsplit)
// and served by S independent permserve processes behind the permrouter
// scatter-gather front end (internal/router).
//
// # Determinism and global ids
//
// Every partitioner is a pure function of (id, S): re-running a split with
// the same inputs reproduces the same shard corpora bit for bit, and — more
// importantly — any process can recompute the local→global id mapping of
// any shard from the three values (partitioner, S, shard index) alone. The
// serving layer (internal/server) relies on this to serve a shard index in
// corpus-global ids, as an index.Subset over the shard's IDs, without
// shipping the mapping: a shard's sidecar manifest carries just an
// Info{partitioner, S, s}.
//
// IDs always returns each shard's global ids in increasing order. The
// subset therefore preserves the corpus order, which makes the local→global
// map strictly monotone — a shard-local result list ordered by (dist, local
// id) stays ordered by (dist, global id) after translation, which is what
// lets the router merge per-shard top-k lists into the exact answer an
// unsharded index would give (see index.Subset and internal/router).
package shard

import (
	"fmt"
)

// Partitioner names a deterministic id→shard assignment. The zero value is
// invalid; use Hash or RoundRobin (or parse a wire/manifest string with
// ParsePartitioner).
type Partitioner string

const (
	// Hash assigns id → splitmix64(id) mod S: a fixed, seedless integer
	// mix, so placement is stable across runs, machines and Go versions,
	// and statistically balanced even when corpus order is meaningful
	// (e.g. time-ordered ingestion).
	Hash Partitioner = "hash"
	// RoundRobin assigns id → id mod S: perfectly balanced (shard sizes
	// differ by at most one) and trivially invertible, at the cost of
	// striping any ordering structure of the corpus across all shards.
	RoundRobin Partitioner = "round-robin"
)

// Partitioners lists the registered partitioners.
func Partitioners() []Partitioner { return []Partitioner{Hash, RoundRobin} }

// ParsePartitioner validates a partitioner name from a flag or manifest.
func ParsePartitioner(name string) (Partitioner, error) {
	for _, p := range Partitioners() {
		if string(p) == name {
			return p, nil
		}
	}
	return "", fmt.Errorf("shard: unknown partitioner %q (known: %v)", name, Partitioners())
}

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.),
// a full-avalanche 64-bit mix. It is fixed forever: changing it would remap
// every existing shard set.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Assign returns the shard in [0, shards) that owns global id under p.
// It panics on shards <= 0 or an unknown partitioner; callers validate both
// once via ParsePartitioner / IDs, not per id.
func (p Partitioner) Assign(id uint32, shards int) int {
	if shards <= 0 {
		panic("shard: shards must be positive")
	}
	switch p {
	case Hash:
		return int(splitmix64(uint64(id)) % uint64(shards))
	case RoundRobin:
		return int(id) % shards
	default:
		panic(fmt.Sprintf("shard: unknown partitioner %q", p))
	}
}

// IDs partitions the global ids [0, n) into shards slices, one per shard,
// each in increasing order. Every id lands in exactly one shard. A shard
// may be empty when n < shards; the serving and routing layers treat an
// empty shard as a corpus with no answers, not an error.
func IDs(p Partitioner, n, shards int) ([][]uint32, error) {
	if _, err := ParsePartitioner(string(p)); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("shard: negative corpus size %d", n)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shards must be positive, got %d", shards)
	}
	out := make([][]uint32, shards)
	// Appending ids in increasing order keeps every shard sorted — the
	// monotone local→global property documented in the package comment.
	for id := 0; id < n; id++ {
		s := p.Assign(uint32(id), shards)
		out[s] = append(out[s], uint32(id))
	}
	return out, nil
}

// ShardIDs returns the sorted global ids owned by one shard, the mapping a
// serving process recomputes from a sidecar Info.
func ShardIDs(p Partitioner, n, shards, index int) ([]uint32, error) {
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("shard: index %d out of range [0, %d)", index, shards)
	}
	all, err := IDs(p, n, shards)
	if err != nil {
		return nil, err
	}
	return all[index], nil
}

// Subset gathers the data objects owned by one shard, in id order. The
// returned slice shares no structure with ids; elements alias the originals.
func Subset[T any](data []T, ids []uint32) []T {
	out := make([]T, len(ids))
	for i, id := range ids {
		out[i] = data[id]
	}
	return out
}

// Info is the shard membership stamp of one serving-side index: everything
// needed to recompute the shard's corpus subset and local→global id map
// from the full corpus. It is embedded in the serving Sidecar and recorded
// per shard in the SetManifest.
type Info struct {
	// Set names the shard set this index belongs to.
	Set string `json:"set"`
	// Partitioner is the id→shard assignment (ParsePartitioner name).
	Partitioner Partitioner `json:"partitioner"`
	// Shards is S, the total shard count of the set.
	Shards int `json:"shards"`
	// Index is this shard's position s in [0, Shards).
	Index int `json:"index"`
}

// Validate checks the stamp's internal consistency.
func (in Info) Validate() error {
	if _, err := ParsePartitioner(string(in.Partitioner)); err != nil {
		return err
	}
	if in.Shards <= 0 {
		return fmt.Errorf("shard: info has %d shards", in.Shards)
	}
	if in.Index < 0 || in.Index >= in.Shards {
		return fmt.Errorf("shard: info index %d out of range [0, %d)", in.Index, in.Shards)
	}
	return nil
}
