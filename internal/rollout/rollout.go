package rollout

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Options configure a rollout Driver.
type Options struct {
	// Topology is the fleet the driver operates on (required).
	Topology *Topology
	// RouterURL, when set, is a scatter-gather front end over the same
	// fleet; the golden query suite runs through it (capturing a baseline
	// from the old generation before the roll, verifying the new one
	// after). Empty disables the golden gate.
	RouterURL string
	// GoldenQueries are the probe queries of the golden suite, in the
	// serving wire encoding (see GoldenQueries to generate them from the
	// manifest's dataset). Ignored without a RouterURL.
	GoldenQueries []json.RawMessage
	// GoldenK is the neighbor count per golden query (default 10).
	GoldenK int
	// MinRecall is the golden gate: mean overlap@k of the new generation's
	// answers against the pre-roll baseline below this triggers automatic
	// rollback (default 0.95).
	MinRecall float64
	// MaxLatencyFactor rolls back when the golden suite's total wall time
	// against the new generation exceeds this multiple of the baseline's
	// (default 0 = disabled; shared CI runners are too noisy to gate by
	// default).
	MaxLatencyFactor float64
	// AllowOlder accepts a manifest whose generation is not newer than the
	// fleet's — the escape hatch `permctl rollout -allow-older` uses to
	// drive a manual roll-forward-to-the-past; the automatic regression
	// rollback bypasses the check internally.
	AllowOlder bool
	// Timeout bounds each HTTP call (default 5s); ConvergeTimeout bounds
	// how long one replica may take to report the target generation after
	// its reload (default 30s); PollInterval is the watch cadence
	// (default 100ms).
	Timeout         time.Duration
	ConvergeTimeout time.Duration
	PollInterval    time.Duration
	// Log receives progress events; nil means the process default logger.
	Log *log.Logger
	// OnEvent, when set, receives every structured per-step Event the
	// driver emits (in addition to the JSON line written to Log) — the hook
	// a control plane or test harness uses to follow a roll step by step.
	OnEvent func(Event)
}

// Event is one structured step of a rollout attempt. Every event is also
// logged as a single JSON line ("rollout: event {...}"), so an operator can
// reconstruct the exact sequence — which replica was mid-swap, what the
// golden gate measured, why a rollback started — from the driver's log
// alone.
type Event struct {
	// Step is one of: preflight, survey, baseline, update, converged,
	// verify, rollback, restore, done.
	Step       string  `json:"step"`
	Set        string  `json:"set"`
	Generation int64   `json:"generation,omitempty"`
	Shard      int     `json:"shard"`   // -1 for fleet-level events
	Replica    int     `json:"replica"` // -1 for fleet-level events
	URL        string  `json:"url,omitempty"`
	Detail     string  `json:"detail,omitempty"`
	Err        string  `json:"error,omitempty"`
	Recall     float64 `json:"recall,omitempty"`
	LatencyX   float64 `json:"latency_x,omitempty"`
}

// Driver ships shard-set generations onto a fleet. Create with New.
type Driver struct {
	opts   Options
	client *http.Client
	log    *log.Logger
}

// New validates opts and builds a driver.
func New(opts Options) (*Driver, error) {
	if opts.Topology == nil {
		return nil, fmt.Errorf("rollout: no topology")
	}
	if err := opts.Topology.Validate(); err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.ConvergeTimeout <= 0 {
		opts.ConvergeTimeout = 30 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 100 * time.Millisecond
	}
	if opts.GoldenK <= 0 {
		opts.GoldenK = 10
	}
	if opts.MinRecall == 0 {
		opts.MinRecall = 0.95
	}
	if opts.Log == nil {
		opts.Log = log.Default()
	}
	return &Driver{
		opts:   opts,
		client: &http.Client{Timeout: opts.Timeout},
		log:    opts.Log,
	}, nil
}

// Report is what one Rollout attempt did, whether it succeeded or was
// rolled back.
type Report struct {
	Set        string   `json:"set"`
	Generation int64    `json:"generation"`          // target generation
	Previous   int64    `json:"previous"`            // highest live generation before the roll
	Updated    []string `json:"updated,omitempty"`   // replica URLs now serving the target
	Skipped    []string `json:"skipped,omitempty"`   // unreachable replicas left on their old generation
	RolledBack bool     `json:"rolled_back"`         // the fleet was restored to Previous
	Reason     string   `json:"reason,omitempty"`    // why the roll failed or rolled back
	Recall     float64  `json:"recall,omitempty"`    // golden overlap@k of the new generation (gate runs only)
	LatencyX   float64  `json:"latency_x,omitempty"` // golden wall-time factor vs baseline (gate runs only)
}

// emit logs e as one structured JSON line and forwards it to the OnEvent
// hook. Fleet-level callers pass Shard/Replica as -1.
func (d *Driver) emit(e Event) {
	blob, err := json.Marshal(e)
	if err != nil {
		blob = []byte(fmt.Sprintf(`{"step":%q,"error":"unencodable event"}`, e.Step))
	}
	d.log.Printf("rollout: event %s", blob)
	if d.opts.OnEvent != nil {
		d.opts.OnEvent(e)
	}
}

// fleetEvent is an Event not attributable to one replica.
func fleetEvent(step, set string, gen int64) Event {
	return Event{Step: step, Set: set, Generation: gen, Shard: -1, Replica: -1}
}

// repState tracks one replica through a roll.
type repState struct {
	shard, id int
	rep       Replica
	prevGen   int64
	reachable bool
	updated   bool
}

func (r *repState) String() string {
	return fmt.Sprintf("shard %d replica %d (%s)", r.shard, r.id, r.rep.URL)
}

// Rollout drives the shard set described by manifestPath onto the fleet:
//
//  1. pre-flight: parse + validate the set manifest, re-checksum every
//     shard file against it (shard.SetManifest.VerifyFiles), and check the
//     target generation against the live fleet's (no accidental
//     downgrades);
//  2. survey: read every replica's current generation; unreachable
//     replicas are skipped with a warning (a dead host catches up when it
//     restarts), but a shard whose every replica is unreachable aborts;
//  3. golden baseline: capture the old generation's answers through the
//     router (when configured);
//  4. roll: replica by replica — readiness gate, back up the live files,
//     install the new ones, POST reload, and watch the replica's
//     /v1/indexes report the target generation before touching the next
//     replica, so at most one member of each group is out of rotation;
//  5. converge: re-survey the whole fleet and require every reachable
//     replica on the target generation;
//  6. golden verify: re-run the suite; a recall or latency regression
//     rolls every updated replica back to its backed-up files and waits
//     for re-convergence on the old generation.
//
// The returned Report describes the outcome; err is non-nil whenever the
// fleet was not left fully converged on the target generation.
func (d *Driver) Rollout(manifestPath string) (*Report, error) {
	m, err := shard.ReadSetManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	setDir := filepath.Dir(manifestPath)
	d.log.Printf("rollout: pre-flight: verifying %d shard files of set %q generation %d", len(m.Shards), m.Set, m.Generation)
	if err := m.VerifyFiles(setDir); err != nil {
		return nil, fmt.Errorf("rollout: pre-flight: %w", err)
	}
	pre := fleetEvent("preflight", m.Set, m.Generation)
	pre.Detail = fmt.Sprintf("%d shard files checksum-verified", len(m.Shards))
	d.emit(pre)
	topo := d.opts.Topology
	if len(m.Shards) != len(topo.Shards) {
		return nil, fmt.Errorf("rollout: manifest has %d shards, topology has %d", len(m.Shards), len(topo.Shards))
	}

	rep := &Report{Set: m.Set, Generation: m.Generation}
	states, err := d.survey(m.Set, rep)
	if err != nil {
		return rep, err
	}
	if !d.opts.AllowOlder && m.Generation <= rep.Previous {
		return rep, fmt.Errorf("rollout: generation skew: manifest generation %d is not newer than the fleet's %d (use -allow-older to force)",
			m.Generation, rep.Previous)
	}
	sv := fleetEvent("survey", m.Set, m.Generation)
	sv.Detail = fmt.Sprintf("fleet on generation %d, %d replicas skipped", rep.Previous, len(rep.Skipped))
	d.emit(sv)

	var baseline *goldenRun
	if d.goldenEnabled() {
		baseline, err = d.captureGolden(m.Set)
		if err != nil {
			return rep, fmt.Errorf("rollout: golden baseline: %w", err)
		}
		d.log.Printf("rollout: golden baseline captured: %d queries via %s", len(d.opts.GoldenQueries), d.opts.RouterURL)
		bl := fleetEvent("baseline", m.Set, m.Generation)
		bl.Detail = fmt.Sprintf("%d golden queries captured", len(d.opts.GoldenQueries))
		d.emit(bl)
	}

	// Roll replica-by-replica. Any failure from here on restores the
	// already-updated replicas before returning.
	for _, st := range states {
		if !st.reachable {
			continue
		}
		if err := d.updateReplica(st, m, setDir); err != nil {
			return rep, d.rollback(rep, states, fmt.Sprintf("updating %s: %v", st, err))
		}
		st.updated = true
		rep.Updated = append(rep.Updated, st.rep.URL)
		d.emit(Event{Step: "update", Set: m.Set, Generation: m.Generation,
			Shard: st.shard, Replica: st.id, URL: st.rep.URL,
			Detail: fmt.Sprintf("generation %d -> %d", st.prevGen, m.Generation)})
	}

	// Convergence double-check across the whole fleet.
	if err := d.awaitFleetConvergence(m.Set, m.Generation, states); err != nil {
		return rep, d.rollback(rep, states, err.Error())
	}
	d.log.Printf("rollout: fleet converged on generation %d (%d replicas updated, %d skipped)",
		m.Generation, len(rep.Updated), len(rep.Skipped))
	cv := fleetEvent("converged", m.Set, m.Generation)
	cv.Detail = fmt.Sprintf("%d replicas updated, %d skipped", len(rep.Updated), len(rep.Skipped))
	d.emit(cv)

	if d.goldenEnabled() {
		verdict, err := d.captureGolden(m.Set)
		if err != nil {
			return rep, d.rollback(rep, states, fmt.Sprintf("golden verify: %v", err))
		}
		rep.Recall = recall(baseline, verdict)
		rep.LatencyX = latencyFactor(baseline, verdict)
		d.log.Printf("rollout: golden verify: recall %.4f (gate %.4f), latency %.2fx", rep.Recall, d.opts.MinRecall, rep.LatencyX)
		vf := fleetEvent("verify", m.Set, m.Generation)
		vf.Recall, vf.LatencyX = rep.Recall, rep.LatencyX
		d.emit(vf)
		if rep.Recall < d.opts.MinRecall {
			return rep, d.rollback(rep, states,
				fmt.Sprintf("golden recall %.4f below gate %.4f", rep.Recall, d.opts.MinRecall))
		}
		if d.opts.MaxLatencyFactor > 0 && rep.LatencyX > d.opts.MaxLatencyFactor {
			return rep, d.rollback(rep, states,
				fmt.Sprintf("golden latency %.2fx above gate %.2fx", rep.LatencyX, d.opts.MaxLatencyFactor))
		}
	}
	d.emit(fleetEvent("done", m.Set, m.Generation))
	return rep, nil
}

// goldenEnabled reports whether the golden gate is configured.
func (d *Driver) goldenEnabled() bool {
	return d.opts.RouterURL != "" && len(d.opts.GoldenQueries) > 0
}

// survey reads every replica's current generation of the set. Unreachable
// replicas are recorded as skipped; an entirely unreachable shard group is
// fatal (rolling it would leave the shard unservable).
func (d *Driver) survey(set string, rep *Report) ([]*repState, error) {
	var states []*repState
	for s, group := range d.opts.Topology.Shards {
		reachable := 0
		for r, member := range group {
			st := &repState{shard: s, id: r, rep: member}
			gen, err := d.generation(member.URL, set)
			if err != nil {
				d.log.Printf("rollout: %s unreachable, skipping: %v", st, err)
				rep.Skipped = append(rep.Skipped, member.URL)
			} else {
				st.reachable = true
				st.prevGen = gen
				reachable++
				if gen > rep.Previous {
					rep.Previous = gen
				}
			}
			states = append(states, st)
		}
		if reachable == 0 {
			return nil, fmt.Errorf("rollout: every replica of shard %d is unreachable", s)
		}
	}
	return states, nil
}

// updateReplica rolls one replica: readiness gate, file backup + install
// (when its serving dir is known), reload, and convergence watch.
func (d *Driver) updateReplica(st *repState, m *shard.SetManifest, setDir string) error {
	if err := d.healthz(st.rep.URL); err != nil {
		return fmt.Errorf("readiness gate: %w", err)
	}
	if st.rep.Dir != "" {
		src := m.Shards[st.shard]
		if err := backupAndInstall(st.rep.Dir, m.Set,
			filepath.Join(setDir, src.File), filepath.Join(setDir, src.Manifest)); err != nil {
			return err
		}
	}
	d.log.Printf("rollout: reloading %s -> generation %d", st, m.Generation)
	if err := d.reload(st.rep.URL, m.Set); err != nil {
		return err
	}
	if err := d.awaitGeneration(st.rep.URL, m.Set, m.Generation); err != nil {
		return err
	}
	// The replica reports the new generation; require readiness before
	// moving on so at most one group member is ever mid-swap.
	return d.healthz(st.rep.URL)
}

// rollback restores every updated replica to its backed-up files and old
// generation, in reverse update order. It always marks the report rolled
// back and returns an error carrying reason (rollback failures compound
// into it — a half-rolled-back fleet must be loud).
func (d *Driver) rollback(rep *Report, states []*repState, reason string) error {
	d.log.Printf("rollout: ROLLING BACK: %s", reason)
	rep.RolledBack = true
	rep.Reason = reason
	rb := fleetEvent("rollback", rep.Set, rep.Generation)
	rb.Err = reason
	d.emit(rb)
	var failures []string
	for i := len(states) - 1; i >= 0; i-- {
		st := states[i]
		if !st.updated {
			continue
		}
		if st.rep.Dir != "" {
			if err := restoreBackup(st.rep.Dir, rep.Set); err != nil {
				failures = append(failures, fmt.Sprintf("%s: restoring files: %v", st, err))
				continue
			}
		}
		if err := d.reload(st.rep.URL, rep.Set); err != nil {
			failures = append(failures, fmt.Sprintf("%s: reload: %v", st, err))
			continue
		}
		if err := d.awaitGeneration(st.rep.URL, rep.Set, st.prevGen); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", st, err))
			continue
		}
		d.log.Printf("rollout: %s restored to generation %d", st, st.prevGen)
		d.emit(Event{Step: "restore", Set: rep.Set, Generation: st.prevGen,
			Shard: st.shard, Replica: st.id, URL: st.rep.URL})
	}
	if len(failures) > 0 {
		return fmt.Errorf("rollout: rolled back (%s) but %d replicas failed to restore: %s",
			reason, len(failures), failures[0])
	}
	return fmt.Errorf("rollout: rolled back: %s", reason)
}

// awaitGeneration polls one replica until it serves the wanted generation.
func (d *Driver) awaitGeneration(url, set string, want int64) error {
	deadline := time.Now().Add(d.opts.ConvergeTimeout)
	var lastErr error
	for time.Now().Before(deadline) {
		gen, err := d.generation(url, set)
		if err == nil && gen == want {
			return nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("serving generation %d, want %d", gen, want)
		}
		time.Sleep(d.opts.PollInterval)
	}
	return fmt.Errorf("%s did not converge on generation %d within %s: %v", url, want, d.opts.ConvergeTimeout, lastErr)
}

// awaitFleetConvergence requires every reachable replica on the target
// generation — the generation-vector watch, against the replicas directly
// (the router's /v1/indexes shows the same matrix to everyone else).
func (d *Driver) awaitFleetConvergence(set string, want int64, states []*repState) error {
	for _, st := range states {
		if !st.reachable {
			continue
		}
		if err := d.awaitGeneration(st.rep.URL, set, want); err != nil {
			return fmt.Errorf("fleet convergence: %s: %v", st, err)
		}
	}
	return nil
}

// --- fleet HTTP primitives ---

// generation reads one replica's served generation of the set from its
// /v1/indexes listing.
func (d *Driver) generation(base, set string) (int64, error) {
	rows, err := wire.ListIndexes(context.TODO(), d.client, base) // bounded by d.client.Timeout
	if err != nil {
		return 0, err
	}
	for _, row := range rows {
		if row.Name == set {
			return row.Generation, nil
		}
	}
	return 0, fmt.Errorf("replica does not serve index %q", set)
}

// healthz is the readiness gate: 200 or error.
func (d *Driver) healthz(base string) error {
	return wire.Healthy(context.TODO(), d.client, base) // bounded by d.client.Timeout
}

// reload asks one replica to hot-swap the set from its files.
func (d *Driver) reload(base, set string) error {
	resp, err := d.client.Post(base+"/v1/indexes/"+set+"/reload", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return nil
}

// --- file shipping ---

// backupSuffix marks the previous generation's files inside a replica's
// serving dir; restoreBackup swaps them back.
const backupSuffix = ".prev"

// backupAndInstall saves the replica's live <set>.psix/.json under the
// backup suffix and installs the new pair. Every copy is atomic and durable
// (vfs.WriteAtomic), so a crash mid-ship can tear neither target (the
// registry only rereads on reload anyway, but the files themselves stay
// whole) and the installed files are 0644 like the ones shardsplit wrote.
func backupAndInstall(dir, set, srcIndex, srcSidecar string) error {
	for _, f := range []struct{ live, src string }{
		{filepath.Join(dir, set+".psix"), srcIndex},
		{filepath.Join(dir, set+".json"), srcSidecar},
	} {
		if err := copyFile(f.live, f.live+backupSuffix); err != nil {
			return fmt.Errorf("backing up %s: %w", f.live, err)
		}
		if err := copyFile(f.src, f.live); err != nil {
			return fmt.Errorf("installing %s: %w", f.live, err)
		}
	}
	return nil
}

// restoreBackup swaps the backed-up pair back into place.
func restoreBackup(dir, set string) error {
	for _, live := range []string{
		filepath.Join(dir, set+".psix"),
		filepath.Join(dir, set+".json"),
	} {
		if err := copyFile(live+backupSuffix, live); err != nil {
			return err
		}
	}
	return nil
}

// copyFile copies src over dst atomically and durably.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return vfs.WriteAtomic(vfs.OS{}, dst, func(w io.Writer) error {
		_, err := io.Copy(w, in)
		return err
	})
}
