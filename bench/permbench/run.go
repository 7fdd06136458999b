package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// recallFloor is the correctness check on answer quality. The regression
// gate is the recall_at_10 metric itself; this floor only catches a fleet
// that answers quickly and wrongly.
const recallFloor = 0.85

// distTolerance is how far a served distance may lie from the one permbench
// recomputes, relatively: room for a kernel that sums in another order, not
// for a wrong object.
const distTolerance = 1e-5

func closeTo(got, want float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff <= distTolerance*want+1e-9
}

// config is one invocation's settings.
type config struct {
	seed   int64
	length time.Duration // the measured pass
	trace  bool          // false: timed pass, end-to-end metrics; true: traced pass, per-layer metrics
	setups int
}

// outcome is what one run of one workload reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	spread    map[string]float64 // end-to-end metrics: relSpread over the reps
	problems  []string           // why correct is false
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// tally folds a closed-loop pass into the operation counts.
func (o *outcome) tally(l searchLoad) {
	o.attempted += l.attempted
	o.failed += l.failed
	if l.firstErr != nil {
		o.problemf("%d of %d search requests failed, first: %v", l.failed, l.attempted, l.firstErr)
	}
}

// run is the state of one workload run.
type run struct {
	env *env
	w   workload
	cfg config
	o   oracle
	out *outcome
	tr  *tracer // nil in a timed run

	sys   *system
	reqs  []request
	sched []writeOp // the whole pass's write schedule; empty on a read-only workload
	srch  *searcher
	cal   *calibrator // nil in a traced run, whose metrics are not scaled

	// Ingest bookkeeping, in acknowledgement order.
	addID    map[int]uint32 // add ordinal -> assigned id
	idAdd    map[uint32]int // assigned id -> add ordinal
	deadBase map[uint32]bool
	deadAdd  map[int]bool
	idLimit  atomic.Uint32
}

// runWorkload sets the workload up, measures one pass and verifies it.
func runWorkload(e *env, w workload, cfg config) (*outcome, error) {
	o, err := newOracle(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	if need := int(cfg.length.Seconds()*float64(w.writeRate)) + 1; w.mutable && need > o.numAdds() {
		return nil, fmt.Errorf("workload %s: a %v pass needs %d ingest objects, the held-out pool has %d", w.name, cfg.length, need, o.numAdds())
	}
	r := &run{
		env: e, w: w, cfg: cfg, o: o,
		out:   &outcome{metrics: map[string]float64{}, spread: map[string]float64{}},
		reqs:  buildRequests(w, o),
		addID: map[int]uint32{}, idAdd: map[uint32]int{}, deadBase: map[uint32]bool{}, deadAdd: map[int]bool{},
	}
	r.idLimit.Store(uint32(w.n))
	r.out.metrics["bench.loadavg_start"] = loadavg1()
	if w.mutable {
		r.sched = buildSchedule(w, cfg.seed, cfg.length)
	}
	if cfg.trace {
		r.tr = newTracer(w.name)
	} else {
		r.cal = o.calibrator()
	}

	// Set up from nothing cfg.setups times; the last one stays up for the
	// pass. Child logs live outside the set directory and outlast this.
	defer func() {
		if r.sys != nil {
			e.tearDown(r.sys)
		}
	}()
	var setupS []float64
	cal := r.cal.run()
	for i := 0; i < cfg.setups; i++ {
		if r.sys != nil {
			e.tearDown(r.sys)
		}
		span := r.tr.begin("setup", -1)
		r.sys, err = e.setUp(w, i)
		r.tr.end(span)
		if err != nil {
			return nil, err
		}
		next := r.cal.run()
		setupS = append(setupS, (r.sys.splitS+r.sys.bootS)/r.cal.slowdown(cal, next))
		cal = next
	}
	r.out.metrics["setup_s"] = median(setupS)
	r.out.spread["setup_s"] = relSpread(setupS)
	r.out.metrics["bench.setup_split_s"] = r.sys.splitS
	r.out.metrics["server.load_ready_s"] = r.sys.bootS
	r.point()

	if cfg.trace {
		err = r.traced()
	} else {
		err = r.timed()
	}
	if err != nil {
		return nil, err
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	r.out.correct = r.out.failed == 0 && len(r.out.problems) == 0
	if cfg.trace {
		path, err := r.tr.write(filepath.Join(e.modDir, "out"))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "permbench: %d spans written to %s\n", len(r.tr.spans), path)
	}
	return r.out, nil
}

// point aims the searcher at the system's current front process.
func (r *run) point() {
	r.srch = &searcher{
		env: r.env, index: r.w.dataset, single: r.w.batch == 1, idLimit: &r.idLimit,
		url: r.sys.front().url + "/v1/indexes/" + r.w.dataset + "/search",
	}
}

// timed is the end-to-end pass: warm-up, then cfg.length of load with span
// recording off, in reps back-to-back segments. A calibration on either side
// of each segment scales its figures to the reference machine speed; the
// reported value is the median over the segments.
func (r *run) timed() error {
	r.out.tally(r.srch.closedLoop(r.reqs, r.w.clients, until(time.Now().Add(warmup)), nil, nil, -1))
	window := r.cfg.length / reps
	qps, p50, p90 := make([]float64, reps), make([]float64, reps), make([]float64, reps)
	cal := r.cal.run()
	for rep := 0; rep < reps; rep++ {
		load, writes := r.segment(rep, window, nil, -1)
		r.out.tally(load)
		next := r.cal.run()
		slow := r.cal.slowdown(cal, next)
		cal = next

		var lat []float64
		queries := 0
		for _, s := range load.samples {
			if s.done < window {
				lat = append(lat, s.ms)
				queries += s.queries
			}
		}
		if r.w.mutable {
			// The gated operation of the ingest workload is the add.
			lat = lat[:0]
			for _, a := range writes.adds {
				lat = append(lat, float64((a.done-a.due).Nanoseconds())/1e6)
			}
		}
		sort.Float64s(lat)
		rawQPS, rawP50 := float64(queries)/window.Seconds(), quantile(lat, 50)
		fmt.Fprintf(os.Stderr, "permbench: %s rep %d: machine %.2fx slower than reference; raw %.1f queries/s, p50 %.3f ms\n",
			r.w.name, rep, slow, rawQPS, rawP50)
		qps[rep], p50[rep], p90[rep] = rawQPS*slow, rawP50/slow, quantile(lat, 90)/slow
	}
	for name, xs := range map[string][]float64{"search_qps": qps, "op_p50_ms": p50, "op_p90_ms": p90} {
		r.out.metrics[name] = median(xs)
		r.out.spread[name] = relSpread(xs)
	}
	return nil
}

// writeLoad is what the open-loop writer observed.
type writeLoad struct {
	adds    []opTiming
	flushMs []float64 // service time of each flush
}

// segment runs the workload's load shape for one stretch of the given
// length: the closed-loop search clients and, on a mutable workload, the
// open-loop writer playing the part of the schedule that falls due in
// stretch number k. The writer finishes its part even when it has fallen
// behind, so every run applies the same writes.
func (r *run) segment(k int, length time.Duration, tr *tracer, parent int) (searchLoad, writeLoad) {
	start := time.Now()
	var writes writeLoad
	done := make(chan struct{})
	go func() {
		defer close(done)
		lo, hi := time.Duration(k)*length, time.Duration(k+1)*length
		var ops []writeOp
		for _, op := range r.sched {
			if op.due >= lo && op.due < hi {
				op.due -= lo
				ops = append(ops, op)
			}
		}
		writes = r.write(start, ops, tr, parent)
	}()
	load := r.srch.closedLoop(r.reqs, r.w.clients, until(start.Add(length)), nil, tr, parent)
	<-done
	return load, writes
}

// write plays a stretch of the ingest schedule against the daemon, recording
// what was acknowledged so that verify can hold the daemon to it.
func (r *run) write(start time.Time, sched []writeOp, tr *tracer, parent int) writeLoad {
	base := r.sys.front().url + "/v1/indexes/" + r.w.dataset
	dues := make([]time.Duration, len(sched))
	for i, op := range sched {
		dues[i] = op.due
	}
	fail := func(op string, err error) {
		r.out.failed++
		r.out.problemf("%s failed: %v", op, err)
	}
	timings := openLoop(wallClock{}, start, dues, func(i int) {
		op := sched[i]
		r.out.attempted++
		switch op.kind {
		case opAdd:
			// Ids are handed out in order from the base size up, and a search
			// may see the new object before this goroutine sees the ack: the
			// bound on a valid id moves when the add is sent.
			r.idLimit.Add(1)
			span := tr.begin("client.add", parent)
			var ack struct {
				IDs []uint32 `json:"ids"`
			}
			err := r.env.post(base+"/add", mustJSON(map[string]json.RawMessage{"object": r.o.addJSON(op.add)}), &ack, tr, span)
			tr.end(span)
			if err == nil && len(ack.IDs) != 1 {
				err = fmt.Errorf("acknowledged %d ids for one object", len(ack.IDs))
			}
			if err != nil {
				fail("add", err)
				return
			}
			r.addID[op.add], r.idAdd[ack.IDs[0]] = ack.IDs[0], op.add
		case opDelete:
			id := uint32(op.delBase)
			if op.delAdd >= 0 {
				var ok bool
				if id, ok = r.addID[op.delAdd]; !ok {
					fail("delete", fmt.Errorf("add %d was never acknowledged", op.delAdd))
					return
				}
			}
			span := tr.begin("client.delete", parent)
			err := r.env.post(base+"/delete", mustJSON(map[string]uint32{"id": id}), nil, tr, span)
			tr.end(span)
			if err != nil {
				fail("delete", err)
				return
			}
			if op.delAdd >= 0 {
				r.deadAdd[op.delAdd] = true
			} else {
				r.deadBase[id] = true
			}
		case opFlush:
			span := tr.begin("client.flush", parent)
			err := r.env.post(base+"/flush", nil, nil, tr, span)
			tr.end(span)
			if err != nil {
				fail("flush", err)
			}
		}
	})
	var out writeLoad
	for i, t := range timings {
		switch sched[i].kind {
		case opAdd:
			out.adds = append(out.adds, t)
		case opFlush:
			out.flushMs = append(out.flushMs, float64((t.done-t.sent).Nanoseconds())/1e6)
		}
	}
	return out
}

// verify holds the system to its answers: on a mutable workload it first
// crashes the daemon and checks every acknowledged write against the
// restarted one; then every query is sent once more, each returned distance
// is recomputed in-process, and recall is taken against the exact scan of
// the live set.
func (r *run) verify() error {
	span := r.tr.begin("verify", -1)
	defer r.tr.end(span)
	if r.w.mutable {
		if err := r.crashAndRecover(); err != nil {
			return err
		}
	}
	kth := r.o.kthDistances(r.deadBase, r.liveAdds())

	keep := make([][]neighbor, r.w.q)
	r.out.tally(r.srch.closedLoop(r.reqs, r.w.clients, once(r.reqs), keep, nil, -1))
	hits := 0
	for qi, nbs := range keep {
		for _, nb := range nbs {
			want, err := r.trueDistance(nb.ID, qi)
			if err == nil && !closeTo(nb.Dist, want) {
				err = fmt.Errorf("claims distance %v, is %v", nb.Dist, want)
			}
			if err != nil {
				r.out.failed++
				r.out.problemf("query %d, neighbour %d: %v", qi, nb.ID, err)
				continue
			}
			if nb.Dist <= kth[qi]*(1+distTolerance)+1e-9 {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(topK*r.w.q)
	if recall < recallFloor {
		r.out.problemf("recall@%d %.4f is below the floor %.2f", topK, recall, recallFloor)
	}
	if r.cfg.trace {
		r.out.metrics["bench.recall_at_10"] = recall
	} else {
		r.out.metrics["recall_at_10"] = recall
	}
	return nil
}

// liveAdds lists, in order, the ordinals of the adds that were acknowledged
// and not deleted since.
func (r *run) liveAdds() []int {
	var live []int
	for j := range r.addID {
		if !r.deadAdd[j] {
			live = append(live, j)
		}
	}
	sort.Ints(live)
	return live
}

// trueDistance recomputes the distance between query qi and the object a
// served id names; an id that names nothing live is an error.
func (r *run) trueDistance(id uint32, qi int) (float64, error) {
	if id < uint32(r.w.n) {
		if r.deadBase[id] {
			return 0, fmt.Errorf("base object was deleted and acknowledged")
		}
		return r.o.baseDistance(id, qi), nil
	}
	j, ok := r.idAdd[id]
	switch {
	case !ok:
		return 0, fmt.Errorf("id was never acknowledged")
	case r.deadAdd[j]:
		return 0, fmt.Errorf("added object was deleted and acknowledged")
	}
	return r.o.addDistance(j, qi), nil
}

// crashAndRecover kills the mutable daemon with SIGKILL, restarts it on the
// same directory, and asks for every acknowledged, undeleted add by its own
// object: it must come back at distance 0 under its acknowledged id.
func (r *run) crashAndRecover() error {
	tiers := filepath.Join(r.sys.shardDir(0), r.w.dataset+".tiers")
	if n := len(r.addID); n > 0 {
		r.out.metrics["lsm.disk_bytes_per_add"] = dirBytes(tiers) / float64(n)
	}
	r.env.kill(r.sys.servers[0])
	t0 := time.Now()
	if err := r.env.boot(r.w, r.sys); err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	r.out.metrics["lsm.recovery_s"] = time.Since(t0).Seconds()
	r.point()

	ordinals := r.liveAdds()
	lost := 0
	const lookupBatch = 64
	for lo := 0; lo < len(ordinals); lo += lookupBatch {
		part := ordinals[lo:min(lo+lookupBatch, len(ordinals))]
		body := searchBody{K: topK}
		for _, j := range part {
			body.Queries = append(body.Queries, r.o.addJSON(j))
		}
		var resp searchResponse
		r.out.attempted++
		err := r.env.post(r.srch.url, mustJSON(body), &resp, nil, -1)
		var lists [][]neighbor
		if err == nil {
			lists, err = checkShape(&resp, r.w.dataset, len(part), false, r.idLimit.Load())
		}
		if err != nil {
			r.out.failed++
			r.out.problemf("lookup after restart: %v", err)
			continue
		}
		for i, j := range part {
			found := false
			for _, nb := range lists[i] {
				found = found || (nb.ID == r.addID[j] && nb.Dist <= 1e-9)
			}
			if !found {
				lost++
				r.out.failed++
				r.out.problemf("acknowledged add %d (id %d) is gone after restart", j, r.addID[j])
			}
		}
	}
	r.out.metrics["lsm.acked_lost"] = float64(lost)
	return nil
}
