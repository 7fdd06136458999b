package rollout

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"time"

	"repro/internal/dataset"
	"repro/internal/wire"
)

// goldenSeedOffset derives the golden query seed from the corpus seed: the
// probes are drawn from the same distribution as the corpus but are not
// corpus members, mirroring how the experiment harness splits query sets.
const goldenSeedOffset = 1_000_003

// GoldenQueries generates q deterministic probe queries for a dataset, in
// the serving wire encoding, for the golden rollout gate: any name
// dataset.Lookup resolves has probes, encoded by the same family whose
// Decode the serving daemon runs on them.
func GoldenQueries(ds string, seed int64, q int) ([]json.RawMessage, error) {
	if q <= 0 {
		return nil, fmt.Errorf("rollout: golden query count must be positive, got %d", q)
	}
	fam, err := dataset.Lookup(ds)
	if err != nil {
		return nil, fmt.Errorf("rollout: golden queries: %w", err)
	}
	return fam.Queries(seed+goldenSeedOffset, q)
}

// goldenRun is one pass of the golden suite: the answer id sets per query
// and the total wall time.
type goldenRun struct {
	answers [][]uint32
	elapsed time.Duration
}

// captureGolden runs every golden query through the router against the
// named set. A partial answer is an error: the golden gate compares
// complete fleets, and gating on a degraded answer would blame the new
// generation for an unrelated host loss.
func (d *Driver) captureGolden(set string) (*goldenRun, error) {
	run := &goldenRun{answers: make([][]uint32, 0, len(d.opts.GoldenQueries))}
	start := time.Now()
	for i, q := range d.opts.GoldenQueries {
		body, err := json.Marshal(wire.SearchRequest{Query: q, K: d.opts.GoldenK})
		if err != nil {
			return nil, err
		}
		resp, err := d.client.Post(
			d.opts.RouterURL+"/v1/indexes/"+url.PathEscape(set)+"/search",
			"application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, wire.MaxBodyBytes))
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("query %d: reading answer: %w", i, err)
		}
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("query %d: status %d: %s", i, resp.StatusCode, wire.ErrorBody(raw))
		}
		var out wire.SearchResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("query %d: decoding answer: %w", i, err)
		}
		if out.Partial {
			return nil, fmt.Errorf("query %d: partial answer (fleet degraded during golden run)", i)
		}
		ids := make([]uint32, len(out.Results))
		for j, r := range out.Results {
			ids[j] = r.ID
		}
		run.answers = append(run.answers, ids)
	}
	run.elapsed = time.Since(start)
	return run, nil
}

// recall is the mean per-query overlap of the new run's answer ids with the
// baseline's — the answer-diff canary: the ids the old generation served
// are ground truth, and a new generation serving materially different
// neighbors (rebuilt over the wrong corpus, truncated, mis-sharded) scores
// low even though both runs "succeeded".
func recall(base, next *goldenRun) float64 {
	if len(base.answers) == 0 {
		return 0
	}
	var sum float64
	for i, want := range base.answers {
		if len(want) == 0 {
			sum += 1 // an empty baseline answer cannot be missed
			continue
		}
		set := make(map[uint32]struct{}, len(want))
		for _, id := range want {
			set[id] = struct{}{}
		}
		hit := 0
		if i < len(next.answers) {
			for _, id := range next.answers[i] {
				if _, ok := set[id]; ok {
					hit++
				}
			}
		}
		sum += float64(hit) / float64(len(want))
	}
	return sum / float64(len(base.answers))
}

// latencyFactor is the new run's wall time as a multiple of the baseline's.
func latencyFactor(base, next *goldenRun) float64 {
	if base.elapsed <= 0 {
		return 1
	}
	return float64(next.elapsed) / float64(base.elapsed)
}
