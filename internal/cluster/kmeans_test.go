package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

// centroid returns the i-th centroid of res as a slice view.
func centroid(res *Result, i int) []float32 {
	return res.Centroids[i*res.Dim : (i+1)*res.Dim]
}

// inertia is the k-means objective: the sum of squared distances from each
// point to its assigned centroid.
func inertia(points []float32, res *Result) float64 {
	var s float64
	for i := range res.Assign {
		s += vecmath.L2Sqr(points[i*res.Dim:(i+1)*res.Dim], centroid(res, res.Assign[i]))
	}
	return s
}

// threeBlobs builds 3 well-separated 2-d clusters of 50 points each.
func threeBlobs(r *rand.Rand) ([]float32, []int) {
	centers := [][2]float64{{0, 0}, {100, 0}, {0, 100}}
	var pts []float32
	var labels []int
	for ci, c := range centers {
		for i := 0; i < 50; i++ {
			pts = append(pts, float32(c[0]+r.NormFloat64()), float32(c[1]+r.NormFloat64()))
			labels = append(labels, ci)
		}
	}
	return pts, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts, labels := threeBlobs(r)
	res, err := KMeans(r, pts, 2, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 3 {
		t.Fatalf("K = %d, want 3", res.K())
	}
	// All points with the same true label must share a cluster.
	for ci := 0; ci < 3; ci++ {
		var first = -1
		for p, lab := range labels {
			if lab != ci {
				continue
			}
			if first == -1 {
				first = res.Assign[p]
			} else if res.Assign[p] != first {
				t.Fatalf("true cluster %d split across k-means clusters", ci)
			}
		}
	}
	// Sizes must be 50 each.
	for i, s := range res.Sizes {
		if s != 50 {
			t.Fatalf("cluster %d size %d, want 50", i, s)
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if _, err := KMeans(r, []float32{1, 2, 3}, 2, 1, 10); err == nil {
		t.Fatal("non-multiple length accepted")
	}
	if _, err := KMeans(r, nil, 2, 1, 10); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := KMeans(r, []float32{1, 2}, 0, 1, 10); err == nil {
		t.Fatal("dim=0 accepted")
	}
	if _, err := KMeans(r, []float32{1, 2}, 2, 0, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := []float32{0, 0, 10, 10} // two 2-d points
	res, err := KMeans(r, pts, 2, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.K() > 2 {
		t.Fatalf("K = %d, want <= 2", res.K())
	}
}

func TestKMeansSinglePoint(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	res, err := KMeans(r, []float32{5, 6}, 2, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 1 || res.Sizes[0] != 1 {
		t.Fatalf("K=%d sizes=%v", res.K(), res.Sizes)
	}
	if c := centroid(res, 0); c[0] != 5 || c[1] != 6 {
		t.Fatalf("centroid = %v", c)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts, _ := threeBlobs(r)
	res1, err := KMeans(r, pts, 2, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := KMeans(r, pts, 2, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	i1, i3 := inertia(pts, res1), inertia(pts, res3)
	if i3 >= i1 {
		t.Fatalf("inertia did not decrease: k=1 %v vs k=3 %v", i1, i3)
	}
	// With 3 separated blobs, k=3 inertia should be tiny vs k=1.
	if i3 > i1/10 {
		t.Fatalf("k=3 inertia %v too large relative to k=1 %v", i3, i1)
	}
}

func TestKMeansAssignConsistent(t *testing.T) {
	// Every point must be assigned to its genuinely nearest centroid at
	// convergence.
	r := rand.New(rand.NewSource(6))
	pts, _ := threeBlobs(r)
	res, err := KMeans(r, pts, 2, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Assign)
	for i := 0; i < n; i++ {
		p := pts[i*2 : i*2+2]
		best, bestD := -1, math.MaxFloat64
		for c := 0; c < res.K(); c++ {
			cd := centroid(res, c)
			dx := float64(p[0] - cd[0])
			dy := float64(p[1] - cd[1])
			if d := dx*dx + dy*dy; d < bestD {
				best, bestD = c, d
			}
		}
		if res.Assign[i] != best {
			t.Fatalf("point %d assigned to %d, nearest is %d", i, res.Assign[i], best)
		}
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	pts, _ := threeBlobs(rand.New(rand.NewSource(7)))
	run := func() *Result {
		res, err := KMeans(rand.New(rand.NewSource(42)), pts, 2, 3, 50)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clustering")
		}
	}
}
