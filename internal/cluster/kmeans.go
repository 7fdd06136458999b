// Package cluster implements k-means clustering. It is the substrate for the
// ImageNet experiment: the paper builds SQFD image signatures by clustering
// 10^4 sampled 7-dimensional pixel features per image with standard k-means
// into 20 clusters (Beecks' method); this package reproduces that pipeline.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/vecmath"
)

// Result holds the output of a k-means run.
type Result struct {
	// Centroids is a k x dim row-major matrix of cluster centers. Empty
	// clusters are dropped, so the row count may be less than the k asked
	// for.
	Centroids []float32
	// Sizes[i] is the number of points assigned to centroid i.
	Sizes []int
	// Assign[p] is the centroid index for input point p.
	Assign []int
	Dim    int
	// Iterations actually executed before convergence or the cap.
	Iterations int
}

// K returns the number of (non-empty) clusters found.
func (res *Result) K() int { return len(res.Sizes) }

// Centroid returns the i-th centroid as a slice view.
func (res *Result) Centroid(i int) []float32 {
	return res.Centroids[i*res.Dim : (i+1)*res.Dim]
}

// KMeans clusters points (an n x dim row-major matrix) into at most k
// clusters using Lloyd's algorithm with k-means++ seeding. It stops after
// maxIter iterations or when no assignment changes.
func KMeans(r *rand.Rand, points []float32, dim, k, maxIter int) (*Result, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("cluster: dim must be positive")
	}
	if len(points)%dim != 0 {
		return nil, fmt.Errorf("cluster: %d values is not a multiple of dim %d", len(points), dim)
	}
	n := len(points) / dim
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive")
	}
	if k > n {
		k = n
	}

	row := func(mat []float32, i int) []float32 { return mat[i*dim : (i+1)*dim] }

	centroids := seedPlusPlus(r, points, dim, n, k)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)
	sums := make([]float64, k*dim)

	// The assignment step is the O(n·k·dim) hot path of Lloyd's
	// algorithm; points are independent, so it fans out over the shared
	// worker pool. Each point's nearest centroid is a pure function of
	// the centroids, so the result is identical to the serial loop.
	// Tiny instances (the ImageNet signature pipeline runs thousands of
	// 300-point clusterings) stay serial: there the per-iteration
	// goroutine fan-out would cost as much as the work itself.
	pool := engine.NewPool(1)
	if n*k*dim >= 1<<17 {
		pool = engine.Pool{}
	}
	iter := 0
	for ; iter < maxIter; iter++ {
		var changed atomic.Int64
		pool.For(n, func(_, i int) {
			p := row(points, i)
			best, bestD := 0, math.MaxFloat64
			for c := 0; c < k; c++ {
				d := vecmath.L2Sqr(p, row(centroids, c))
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed.Add(1)
			}
		})
		if changed.Load() == 0 {
			break
		}
		// Recompute centroids.
		for i := range sums {
			sums[i] = 0
		}
		for i := range sizes {
			sizes[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			sizes[c]++
			p := row(points, i)
			for d := 0; d < dim; d++ {
				sums[c*dim+d] += float64(p[d])
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(row(centroids, c), row(points, r.Intn(n)))
				continue
			}
			inv := 1 / float64(sizes[c])
			for d := 0; d < dim; d++ {
				centroids[c*dim+d] = float32(sums[c*dim+d] * inv)
			}
		}
	}

	// Final bookkeeping: recount sizes and drop empty clusters.
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	remap := make([]int, k)
	kept := 0
	for c := 0; c < k; c++ {
		if sizes[c] > 0 {
			remap[c] = kept
			copy(centroids[kept*dim:(kept+1)*dim], row(centroids, c))
			sizes[kept] = sizes[c]
			kept++
		} else {
			remap[c] = -1
		}
	}
	for i := range assign {
		assign[i] = remap[assign[i]]
	}
	return &Result{
		Centroids:  centroids[:kept*dim],
		Sizes:      sizes[:kept],
		Assign:     assign,
		Dim:        dim,
		Iterations: iter,
	}, nil
}

// seedPlusPlus picks k initial centroids with k-means++ (squared-distance
// weighted sampling), which makes small-iteration-budget runs much more
// stable than uniform seeding.
func seedPlusPlus(r *rand.Rand, points []float32, dim, n, k int) []float32 {
	row := func(i int) []float32 { return points[i*dim : (i+1)*dim] }
	centroids := make([]float32, k*dim)
	first := r.Intn(n)
	copy(centroids[:dim], row(first))

	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = vecmath.L2Sqr(row(i), centroids[:dim])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total == 0 {
			pick = r.Intn(n)
		} else {
			u := r.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if u <= acc {
					pick = i
					break
				}
			}
		}
		dst := centroids[c*dim : (c+1)*dim]
		copy(dst, row(pick))
		for i := 0; i < n; i++ {
			if d := vecmath.L2Sqr(row(i), dst); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// Inertia returns the sum of squared distances from each point to its
// assigned centroid — the k-means objective, useful in tests.
func Inertia(points []float32, res *Result) float64 {
	var s float64
	for i := 0; i < len(res.Assign); i++ {
		p := points[i*res.Dim : (i+1)*res.Dim]
		s += vecmath.L2Sqr(p, res.Centroid(res.Assign[i]))
	}
	return s
}
