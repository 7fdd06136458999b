package main

import (
	"sync"
	"time"
)

// The sandbox this benchmark is gated on changes speed under it: identical
// runs minutes apart differ by 20-40% in every CPU-bound figure at once
// (shared cores, frequency and cache state), far beyond any regression
// bound. permbench therefore brackets each measured interval with a fixed
// piece of work of its own — the calibration: every core evaluating
// permbench's own plain implementation of the workload's distance over
// fixed pairs of the workload's objects — and reports end-to-end timings
// scaled to the speed at which that work takes its reference duration. A
// machine running 25% slow makes both the calibration and the system 25%
// slow, and the scaled value stays put. The scaled throughput is in effect
// the paper's axis, work done per brute-force distance evaluation, with a
// brute force no change to the repository can move. Counts, recall and the
// per-layer metrics of the traced pass are never scaled.

// calibrator times the calibration work.
type calibrator struct {
	work  func(core int) // one core's share of the work
	cores int            // how many cores do it at once
	ref   time.Duration  // what run takes on the baseline sandbox, undisturbed
}

// run does the work on c.cores cores at once and returns how long it took.
// A nil calibrator (a traced run) does nothing.
func (c *calibrator) run() time.Duration {
	if c == nil {
		return 0
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < c.cores; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.work(g)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// slowdown turns the calibrations on either side of an interval into the
// factor by which the machine ran slower than the reference during it; 1
// for a nil calibrator.
func (c *calibrator) slowdown(before, after time.Duration) float64 {
	if c == nil {
		return 1
	}
	return float64(before+after) / 2 / float64(c.ref)
}

// refL2 and refLevenshtein are the calibration's distances: straightforward
// code that belongs to the benchmark, so that no optimisation of the
// library's kernels changes what one calibration costs.

func refL2(a, b []float32) float64 {
	var s float32
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return float64(s)
}

func refLevenshtein(a, b []byte) float64 {
	var rows [2][96]int32
	if len(b) >= len(rows[0]) {
		b = b[:len(rows[0])-1]
	}
	prev, cur := rows[0][:len(b)+1], rows[1][:len(b)+1]
	for j := range prev {
		prev[j] = int32(j)
	}
	for i, ca := range a {
		cur[0] = int32(i + 1)
		for j, cb := range b {
			best := prev[j]
			if ca != cb {
				best++
			}
			best = min(best, prev[j+1]+1, cur[j]+1)
			cur[j+1] = best
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(b)])
}
