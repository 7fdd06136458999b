package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/permutation"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// sweep is one method of a Figure 4 panel: a single build plus a list of
// query-time variants tracing out its recall/efficiency curve. Each variant
// is an index.ParseParams-syntax label ("gamma=0.05", "att=2,ef=20")
// resolved through the same index.Resolve the serving daemon runs for
// per-request params — so the sweeps keep it covered — and passed with every
// query.
type sweep[T any] struct {
	method   string
	build    func(sp space.Space[T], db []T) (index.Index[T], error)
	variants []string
	// table2 marks the method for inclusion in Table 2.
	table2 bool
}

// combo is the generic Runner implementation for one data set / distance.
type combo[T any] struct {
	name string
	corpus[T]
	bytesOf func(T) int64
	sweeps  func(cfg Config, n int) []sweep[T]
	// randProj returns a random-projection function into dim dimensions
	// and whether the projected space uses cosine distance (Wiki-sparse)
	// instead of L2; nil when the paper has no rand-proj panel for this
	// data set.
	randProj func(seed int64, dim int) func(T) []float32
	randCos  bool
}

// Name implements Runner.
func (c *combo[T]) Name() string { return c.name }

// Distance implements Runner.
func (c *combo[T]) Distance() string { return c.sp.Name() }

// Dims implements Runner.
func (c *combo[T]) Dims() string { return c.fam.Dims() }

// Table1 implements Runner: name, distance, #rec, brute-force 10-NN time,
// in-memory size, dims.
func (c *combo[T]) Table1(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	data := c.fam.Gen(cfg.Seed, cfg.N)
	db, queries := data[:len(data)-cfg.Queries], data[len(data)-cfg.Queries:]
	bruteTime, _ := eval.BruteTime(c.sp, db, queries, cfg.K)
	var bytes int64
	for _, x := range data {
		bytes += c.bytesOf(x)
	}
	return tsv(w, c.name, c.Distance(), cfg.N, bruteTime,
		fmt.Sprintf("%.1fMB", float64(bytes)/(1<<20)), c.Dims())
}

// Table2 implements Runner: per-method index size and creation time.
func (c *combo[T]) Table2(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	data := c.fam.Gen(cfg.Seed, cfg.N)
	for _, s := range c.sweeps(cfg, len(data)) {
		if !s.table2 {
			continue
		}
		idx, buildTime, err := eval.MeasureBuild(func() (index.Index[T], error) {
			return s.build(c.sp, data)
		})
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.name, s.method, err)
		}
		var bytes int64
		if sized, ok := idx.(index.Sized); ok {
			bytes = sized.Stats().Bytes
		}
		if err := tsv(w, c.name, s.method,
			fmt.Sprintf("%.1fMB", float64(bytes)/(1<<20)),
			fmt.Sprintf("%.1fs", buildTime.Seconds())); err != nil {
			return err
		}
	}
	return nil
}

// Figure2 implements Runner: sample pairs from two strata (random pairs and
// 100-NN pairs) and write original vs projected distances, for the
// permutation projection and, where the paper has a panel, the classic
// random projection.
func (c *combo[T]) Figure2(cfg Config, projDim, pairs int, w io.Writer) error {
	cfg = cfg.withDefaults()
	if projDim <= 0 {
		projDim = 64
	}
	if pairs <= 0 {
		pairs = 250
	}
	data := c.fam.Gen(cfg.Seed, cfg.N)
	r := rand.New(rand.NewSource(cfg.Seed + 1))

	type pair struct {
		stratum string
		i, j    int
	}
	var ps []pair
	for len(ps) < pairs {
		i, j := r.Intn(len(data)), r.Intn(len(data))
		if i != j {
			ps = append(ps, pair{"random", i, j})
		}
	}
	// Near-neighbor stratum: a point paired with one of its 100 NNs.
	scan := seqscan.New(c.sp, data)
	kNN := 100
	if kNN >= len(data) {
		kNN = len(data) - 1
	}
	for n := 0; n < pairs; n++ {
		i := r.Intn(len(data))
		nn := scan.Search(data[i], kNN+1) // includes self
		var choices []uint32
		for _, x := range nn {
			if int(x.ID) != i {
				choices = append(choices, x.ID)
			}
		}
		if len(choices) == 0 {
			continue
		}
		ps = append(ps, pair{"nn", i, int(choices[r.Intn(len(choices))])})
	}

	// Permutation projection: sqrt(Spearman rho) = L2 over rank vectors.
	m := projDim
	if m > len(data) {
		m = len(data)
	}
	pv, err := permutation.Sample(r, c.sp, data, m)
	if err != nil {
		return err
	}
	permCache := map[int][]int32{}
	var sc permutation.Scratch
	permOf := func(i int) []int32 {
		if p, ok := permCache[i]; ok {
			return p
		}
		p := slices.Clone(pv.PermutationWith(&sc, data[i]))
		permCache[i] = p
		return p
	}
	rho := permutation.RhoMetric{}
	for _, p := range ps {
		orig := c.sp.Distance(data[p.i], data[p.j])
		proj := rho.Distance(permOf(p.i), permOf(p.j))
		if err := tsv(w, c.name, "perm", p.stratum, orig, proj); err != nil {
			return err
		}
	}

	if c.randProj == nil {
		return nil
	}
	project := c.randProj(cfg.Seed+2, projDim)
	projCache := map[int][]float32{}
	vecOf := func(i int) []float32 {
		if v, ok := projCache[i]; ok {
			return v
		}
		v := project(data[i])
		projCache[i] = v
		return v
	}
	for _, p := range ps {
		orig := c.sp.Distance(data[p.i], data[p.j])
		var proj float64
		if c.randCos {
			proj = cosineDistDense(vecOf(p.i), vecOf(p.j))
		} else {
			proj = vecmath.L2(vecOf(p.i), vecOf(p.j))
		}
		if err := tsv(w, c.name, "rand", p.stratum, orig, proj); err != nil {
			return err
		}
	}
	return nil
}

// Figure3 implements Runner: for each projection dimensionality, the
// average fraction of the data set that must be scanned (in projected-space
// order) to reach each recall level for k-NN.
func (c *combo[T]) Figure3(cfg Config, dims []int, w io.Writer) error {
	cfg = cfg.withDefaults()
	if len(dims) == 0 {
		dims = []int{16, 64, 256, 1024}
	}
	data := c.fam.Gen(cfg.Seed, cfg.N)
	db, queries := data[:len(data)-cfg.Queries], data[len(data)-cfg.Queries:]
	truth := eval.GroundTruth(c.sp, db, queries, cfg.K)

	emit := func(kind string, dim int, fractions [][]float64) error {
		// fractions[q][j] = fraction needed for recall (j+1)/K on
		// query q; average per recall level.
		for j := 0; j < cfg.K; j++ {
			var sum float64
			var n int
			for q := range fractions {
				if j < len(fractions[q]) {
					sum += fractions[q][j]
					n++
				}
			}
			if n == 0 {
				continue
			}
			recall := float64(j+1) / float64(cfg.K)
			if err := tsv(w, c.name, kind, dim, recall, sum/float64(n)); err != nil {
				return err
			}
		}
		return nil
	}

	for _, dim := range dims {
		m := dim
		if m > len(db) {
			m = len(db)
		}
		bf, err := core.NewBruteForceFilter(c.sp, db, core.BruteForceOptions{
			NumPivots: m, Gamma: 1, Seed: cfg.Seed + int64(dim),
		})
		if err != nil {
			return err
		}
		fractions := make([][]float64, len(queries))
		for qi, q := range queries {
			fractions[qi] = fractionCurve(bf.RankAll(q), truth[qi], len(db))
		}
		if err := emit("perm", dim, fractions); err != nil {
			return err
		}
	}

	if c.randProj == nil {
		return nil
	}
	for _, dim := range dims {
		project := c.randProj(cfg.Seed+3, dim)
		pdb := make([][]float32, len(db))
		for i, x := range db {
			pdb[i] = project(x)
		}
		fractions := make([][]float64, len(queries))
		for qi, q := range queries {
			pq := project(q)
			rank := make([]topk.Neighbor, len(pdb))
			for i, v := range pdb {
				var d float64
				if c.randCos {
					d = cosineDistDense(v, pq)
				} else {
					d = vecmath.L2Sqr(v, pq)
				}
				rank[i] = topk.Neighbor{ID: uint32(i), Dist: d}
			}
			topk.ByDist(rank)
			fractions[qi] = fractionCurve(rank, truth[qi], len(db))
		}
		if err := emit("rand", dim, fractions); err != nil {
			return err
		}
	}
	return nil
}

// fractionCurve returns, for j = 1..k, the fraction of the data set that
// must be scanned in `rank` order to encounter j of the true neighbors.
func fractionCurve(rank []topk.Neighbor, truth []topk.Neighbor, n int) []float64 {
	want := make(map[uint32]struct{}, len(truth))
	for _, t := range truth {
		want[t.ID] = struct{}{}
	}
	var positions []int
	for pos, cand := range rank {
		if _, ok := want[cand.ID]; ok {
			positions = append(positions, pos)
			if len(positions) == len(want) {
				break
			}
		}
	}
	sort.Ints(positions)
	out := make([]float64, len(positions))
	for j, pos := range positions {
		out[j] = float64(pos+1) / float64(n)
	}
	return out
}

// Methods implements Runner.
func (c *combo[T]) Methods(cfg Config) []string {
	cfg = cfg.withDefaults()
	var out []string
	for _, s := range c.sweeps(cfg, cfg.N) {
		out = append(out, s.method)
	}
	return out
}

// RunMethods implements Runner: the efficiency/recall sweep across the named
// methods (nil means all), averaged over cfg.Folds random splits, one
// in-memory index per method and split.
func (c *combo[T]) RunMethods(cfg Config, methods []string, w io.Writer) error {
	cfg = cfg.withDefaults()
	wanted := func(m string) bool {
		if len(methods) == 0 {
			return true
		}
		for _, x := range methods {
			if x == m {
				return true
			}
		}
		return false
	}
	data := c.fam.Gen(cfg.Seed, cfg.N)
	r := rand.New(rand.NewSource(cfg.Seed + 4))
	splits, err := eval.Splits(r, len(data), cfg.Queries, cfg.Folds)
	if err != nil {
		return err
	}

	type key struct{ method, label string }
	acc := map[key][]eval.Result{}
	var order []key

	for _, split := range splits {
		db, queries := eval.Apply(data, split)
		truth := eval.GroundTruth(c.sp, db, queries, cfg.K)
		bruteTime, _ := eval.BruteTime(c.sp, db, queries, cfg.K)
		for _, s := range c.sweeps(cfg, len(db)) {
			if !wanted(s.method) {
				continue
			}
			idx, buildTime, err := eval.MeasureBuild(func() (index.Index[T], error) {
				return s.build(c.sp, db)
			})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", c.name, s.method, err)
			}
			for _, label := range s.variants {
				// Params are resolved against the method's kind and ride
				// every query.
				p, err := index.ParseParams(label)
				if err != nil {
					return fmt.Errorf("%s/%s %s: %w", c.name, s.method, label, err)
				}
				opts := index.Options{K: cfg.K}
				if opts.Params, err = index.Resolve(s.method, p); err != nil {
					return fmt.Errorf("%s/%s %s: %w", c.name, s.method, label, err)
				}
				res := eval.Measure(idx, queries, truth, opts, bruteTime, cfg.Workers)
				res.Method = s.method
				res.BuildTime = buildTime
				k := key{s.method, label}
				if _, seen := acc[k]; !seen {
					order = append(order, k)
				}
				acc[k] = append(acc[k], res)
			}
		}
	}

	for _, k := range order {
		m := eval.MeanResult(acc[k])
		if err := tsv(w, c.name, k.method, k.label, m.Recall, m.Improvement,
			m.QueryTime, m.QPS,
			fmt.Sprintf("%.1fs", m.BuildTime.Seconds()),
			fmt.Sprintf("%.1fMB", float64(m.IndexBytes)/(1<<20))); err != nil {
			return err
		}
	}
	return nil
}

// cosineDistDense is 1 - cos(a, b) over dense vectors.
func cosineDistDense(a, b []float32) float64 {
	na, nb := vecmath.Norm(a), vecmath.Norm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	cos := vecmath.Dot(a, b) / (na * nb)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return 1 - cos
}

var _ Runner = (*combo[[]float32])(nil)
