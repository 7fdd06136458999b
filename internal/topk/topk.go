// Package topk provides the small-ordering primitives shared by every index
// in this repository: the Neighbor result type, a bounded max-heap that keeps
// the k nearest candidates seen so far, and quickselect-based partial sorting.
//
// The paper (§2.2) notes that, for the filtering stage of brute-force
// permutation search, incremental sorting is about twice as fast as a
// standard priority queue; SelectK is that incremental sort.
package topk

import "slices"

// Neighbor is a candidate answer: a data-point identifier and its distance
// from the query. Smaller distances are better. The JSON tags are the
// serving wire shape (internal/wire marshals results straight from search
// output).
type Neighbor struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// ByDist sorts a slice of neighbors by increasing distance, breaking ties by
// increasing ID so results are deterministic. It does not allocate (the
// generic slices sort avoids the interface boxing of sort.Slice), keeping it
// usable on the zero-allocation search hot path.
func ByDist(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
}

// Queue is a bounded max-heap holding the k nearest neighbors observed so
// far. The element at the top of the heap is the *worst* (largest by
// (distance, id)) of the kept set, so a new candidate only enters if it
// beats the top.
//
// The heap orders lexicographically by (Dist, ID), exactly like ByDist and
// SelectK, so the kept set is always the canonical k smallest of everything
// pushed so far — independent of push order, including when distances tie
// at the k boundary. Canonical tie-breaking is what lets a scatter-gather
// merge of per-shard top-k lists (internal/router) reproduce an unsharded
// index bit for bit: both sides resolve a tie in favor of the smaller id.
//
// The zero value is ready after Reset.
type Queue struct {
	k    int
	heap []Neighbor // max-heap by Dist
}

// Reset readies the queue for a new query retaining k nearest neighbors,
// reusing the backing array. It is the reuse entry point of the search hot
// path: a scratch-held queue cycles Reset / Push / AppendResults without
// allocating once its array has grown to the largest k seen. It panics if
// k <= 0.
func (q *Queue) Reset(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	q.k = k
	q.heap = q.heap[:0]
}

// Len reports how many neighbors are currently held.
func (q *Queue) Len() int { return len(q.heap) }

// K returns the queue capacity.
func (q *Queue) K() int { return q.k }

// Bound returns the current pruning radius: the distance of the worst kept
// neighbor when the queue is full, or +Inf semantics via ok=false otherwise.
func (q *Queue) Bound() (d float64, ok bool) {
	if len(q.heap) < q.k {
		return 0, false
	}
	return q.heap[0].Dist, true
}

// WouldAccept reports whether a candidate at distance d could enter the
// queue if pushed now. A candidate tying the current bound may still enter
// (its id decides), so ties report true; callers use WouldAccept only to
// skip work, and skipping a tie would make the kept set depend on push
// order.
func (q *Queue) WouldAccept(d float64) bool {
	return len(q.heap) < q.k || d <= q.heap[0].Dist
}

// Push offers a candidate to the queue, keeping only the k nearest by
// (distance, id). It reports whether the candidate was retained.
func (q *Queue) Push(id uint32, d float64) bool {
	if len(q.heap) < q.k {
		q.heap = append(q.heap, Neighbor{ID: id, Dist: d})
		q.siftUp(len(q.heap) - 1)
		return true
	}
	if !less(Neighbor{ID: id, Dist: d}, q.heap[0]) {
		return false
	}
	q.heap[0] = Neighbor{ID: id, Dist: d}
	q.siftDown(0)
	return true
}

// AppendResults drains the queue, appending its contents to dst ordered by
// increasing distance (ties by increasing ID), and returns the extended
// slice. With a dst of sufficient capacity it does not allocate; the queue
// is empty afterwards and ready for Reset.
func (q *Queue) AppendResults(dst []Neighbor) []Neighbor {
	start := len(dst)
	dst = append(dst, q.heap...)
	q.heap = q.heap[:0]
	ByDist(dst[start:])
	return dst
}

func (q *Queue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q.heap[parent], q.heap[i]) {
			return
		}
		q.heap[parent], q.heap[i] = q.heap[i], q.heap[parent]
		i = parent
	}
}

func (q *Queue) siftDown(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && less(q.heap[largest], q.heap[l]) {
			largest = l
		}
		if r < n && less(q.heap[largest], q.heap[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		q.heap[i], q.heap[largest] = q.heap[largest], q.heap[i]
		i = largest
	}
}

// MinQueue is an unbounded min-heap of neighbors; the top is the *nearest*
// element. It drives the proximity graphs' best-first traversal and MPLSH's
// multi-probe enumeration, where ID names a candidate perturbation set and
// Dist is its score. Comparisons are on Dist alone, so equal distances pop in
// the order the heap's shape gives, not by ID.
type MinQueue struct {
	heap []Neighbor
}

// Len reports the number of queued neighbors.
func (q *MinQueue) Len() int { return len(q.heap) }

// Push adds a neighbor.
func (q *MinQueue) Push(id uint32, d float64) {
	q.heap = append(q.heap, Neighbor{ID: id, Dist: d})
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.heap[parent].Dist <= q.heap[i].Dist {
			break
		}
		q.heap[parent], q.heap[i] = q.heap[i], q.heap[parent]
		i = parent
	}
}

// Pop removes and returns the nearest neighbor. It panics if empty.
func (q *MinQueue) Pop() Neighbor {
	n := len(q.heap)
	if n == 0 {
		panic("topk: Pop on empty MinQueue")
	}
	top := q.heap[0]
	q.heap[0] = q.heap[n-1]
	q.heap = q.heap[:n-1]
	i := 0
	n--
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.heap[l].Dist < q.heap[smallest].Dist {
			smallest = l
		}
		if r < n && q.heap[r].Dist < q.heap[smallest].Dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
	return top
}

// Reset empties the queue, retaining capacity.
func (q *MinQueue) Reset() { q.heap = q.heap[:0] }

// SelectK partially sorts ns so that its k smallest elements (by Dist, ties
// by ID) occupy ns[:k] in increasing order. It runs in expected O(n + k log
// k) time using quickselect followed by a sort of the prefix — this is the
// "incremental sorting" strategy from §2.2 of the paper, which replaces a
// priority queue in the permutation filtering stage.
//
// If k >= len(ns) the whole slice is sorted. The (possibly trimmed) prefix is
// returned.
//
// SelectK works in place and does not allocate, so callers on the hot path
// reuse one scratch candidate slice across queries: truncate, refill, call
// SelectK again.
func SelectK(ns []Neighbor, k int) []Neighbor {
	if k >= len(ns) {
		ByDist(ns)
		return ns
	}
	if k <= 0 {
		return ns[:0]
	}
	quickselect(ns, k)
	prefix := ns[:k]
	ByDist(prefix)
	return prefix
}

// less orders neighbors by (Dist, ID).
func less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// quickselect rearranges ns so that the k smallest elements are in ns[:k]
// (in arbitrary order). Hoare-style partitioning with median-of-three pivot
// selection; falls back to insertion handling for tiny ranges.
func quickselect(ns []Neighbor, k int) {
	lo, hi := 0, len(ns)-1
	for lo < hi {
		if hi-lo < 12 {
			insertionSort(ns[lo : hi+1])
			return
		}
		p := medianOfThree(ns, lo, hi)
		mid := partition(ns, lo, hi, p)
		switch {
		case mid == k:
			return
		case mid < k:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
}

func insertionSort(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && less(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func medianOfThree(ns []Neighbor, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if less(ns[mid], ns[lo]) {
		ns[mid], ns[lo] = ns[lo], ns[mid]
	}
	if less(ns[hi], ns[lo]) {
		ns[hi], ns[lo] = ns[lo], ns[hi]
	}
	if less(ns[hi], ns[mid]) {
		ns[hi], ns[mid] = ns[mid], ns[hi]
	}
	return mid
}

// partition places the pivot (initially at index p) into its final sorted
// position and returns that position.
func partition(ns []Neighbor, lo, hi, p int) int {
	pivot := ns[p]
	ns[p], ns[hi] = ns[hi], ns[p]
	store := lo
	for i := lo; i < hi; i++ {
		if less(ns[i], pivot) {
			ns[i], ns[store] = ns[store], ns[i]
			store++
		}
	}
	ns[store], ns[hi] = ns[hi], ns[store]
	return store
}
