// Package rollout is the control plane of the replicated serving tier: it
// describes a fleet (a shards × replicas topology of permserve processes)
// and drives a new shard-set generation onto it — pre-verifying bytes
// against the set manifest, reloading replica-by-replica behind the
// readiness gate, watching the /v1/indexes generation vectors converge,
// and rolling back automatically when the golden query suite says the new
// generation regressed. cmd/permctl is the thin CLI wrapper; cmd/permrouter
// reads the same topology file to wire its replica groups.
package rollout

import (
	"fmt"

	"repro/internal/vfs"
)

// TopologySchema tags the topology file format; readers reject unknown
// schemas, mirroring the shard-set manifest policy.
const TopologySchema = "permsearch-topology/v1"

// Replica is one serving process in the fleet: where to reach it and —
// for fleets whose hosts share a filesystem with the driver, like the CI
// smoke fleet — which directory it serves from, so the driver can ship
// index bytes before asking for a reload. An empty Dir means the bytes
// travel out of band (rsync, object store, ...) and the driver only
// reloads and verifies.
type Replica struct {
	URL string `json:"url"`
	Dir string `json:"dir,omitempty"`
}

// Topology is the fleet layout: Shards[i] lists shard i's replica group, in
// the same order permrouter wires its groups. One file describes the fleet
// to both the router (URLs) and the rollout driver (URLs + dirs).
type Topology struct {
	Schema string      `json:"schema"`
	Shards [][]Replica `json:"shards"`
}

// Validate checks the topology's internal consistency.
func (t *Topology) Validate() error {
	if t.Schema != TopologySchema {
		return fmt.Errorf("rollout: topology schema %q, want %q", t.Schema, TopologySchema)
	}
	if len(t.Shards) == 0 {
		return fmt.Errorf("rollout: topology lists no shards")
	}
	seen := map[string]string{}
	for s, group := range t.Shards {
		if len(group) == 0 {
			return fmt.Errorf("rollout: shard %d has no replicas", s)
		}
		for r, rep := range group {
			if rep.URL == "" {
				return fmt.Errorf("rollout: shard %d replica %d has no url", s, r)
			}
			if prev, dup := seen[rep.URL]; dup {
				return fmt.Errorf("rollout: replica url %s appears twice (%s and shard %d replica %d)", rep.URL, prev, s, r)
			}
			seen[rep.URL] = fmt.Sprintf("shard %d replica %d", s, r)
		}
	}
	return nil
}

// URLs flattens the topology into the shards × replicas URL matrix the
// router consumes.
func (t *Topology) URLs() [][]string {
	out := make([][]string, len(t.Shards))
	for s, group := range t.Shards {
		for _, rep := range group {
			out[s] = append(out[s], rep.URL)
		}
	}
	return out
}

// ReadTopology parses and validates a topology file.
func ReadTopology(path string) (*Topology, error) {
	var t Topology
	if err := vfs.ReadJSON(vfs.OS{}, path, &t); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &t, nil
}
