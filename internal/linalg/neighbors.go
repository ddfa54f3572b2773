package linalg

// Metric selects the distance function used by nearest-neighbour search.
type Metric int

const (
	// Euclidean uses squared L2 distance (ordering-equivalent to L2).
	Euclidean Metric = iota
	// Manhattan uses L1 distance, the metric ReliefF uses on normalized data.
	Manhattan
)

func distance(m Metric, a, b []float64) float64 {
	if m == Manhattan {
		return L1Dist(a, b)
	}
	return SqDist(a, b)
}

// NNScratch holds the bounded-heap storage for nearest-neighbour queries so
// repeated calls (ReliefF visits every sampled seed, MCFS every sampled row)
// reuse one allocation. The zero value is ready to use. A scratch must not be
// shared between goroutines.
type NNScratch struct {
	dist []float64
	idx  []int
}

// nnWorse reports whether heap entry a is a worse neighbour than entry b:
// larger distance, or equal distance with the larger row index. The heap is
// ordered worst-at-root so the k best candidates survive.
func nnWorse(hd []float64, hidx []int, a, b int) bool {
	if hd[a] != hd[b] {
		return hd[a] > hd[b]
	}
	return hidx[a] > hidx[b]
}

func nnSiftDown(hd []float64, hidx []int, root, size int) {
	for {
		c := 2*root + 1
		if c >= size {
			return
		}
		if r := c + 1; r < size && nnWorse(hd, hidx, r, c) {
			c = r
		}
		if !nnWorse(hd, hidx, c, root) {
			return
		}
		hd[root], hd[c] = hd[c], hd[root]
		hidx[root], hidx[c] = hidx[c], hidx[root]
		root = c
	}
}

func nnSiftUp(hd []float64, hidx []int, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !nnWorse(hd, hidx, i, p) {
			return
		}
		hd[i], hd[p] = hd[p], hd[i]
		hidx[i], hidx[p] = hidx[p], hidx[i]
		i = p
	}
}

// KNNSelf returns the indices of the k nearest rows of x to the query,
// excluding the single row self (pass self < 0 to exclude nothing), ordered
// by increasing distance with ties broken on the lower index — exactly the
// ordering of KNN. It runs in O(n + k log k) with a bounded max-heap instead
// of sorting every candidate: rows no better than the current k-th best are
// rejected in O(1). scratch is reused across calls; out is reused when its
// capacity allows, so steady-state queries allocate nothing.
func KNNSelf(x *Matrix, query []float64, k int, m Metric, self int, scratch *NNScratch, out []int) []int {
	n := x.Rows
	avail := n
	if self >= 0 && self < n {
		avail--
	}
	if k > avail {
		k = avail
	}
	if k <= 0 {
		if out == nil {
			return []int{}
		}
		return out[:0]
	}
	if cap(scratch.dist) < k {
		scratch.dist = make([]float64, k)
		scratch.idx = make([]int, k)
	}
	hd := scratch.dist[:k]
	hidx := scratch.idx[:k]
	sz := 0
	for i := 0; i < n; i++ {
		if i == self {
			continue
		}
		d := distance(m, x.Row(i), query)
		if sz == k {
			if d > hd[0] || (d == hd[0] && i > hidx[0]) {
				continue
			}
			hd[0], hidx[0] = d, i
			nnSiftDown(hd, hidx, 0, sz)
			continue
		}
		hd[sz], hidx[sz] = d, i
		sz++
		nnSiftUp(hd, hidx, sz-1)
	}
	if cap(out) < sz {
		out = make([]int, sz)
	}
	out = out[:sz]
	// Pop the heap worst-first into the tail of out: the result comes out
	// sorted ascending by (distance, index), matching a full sort.
	for t := sz - 1; t > 0; t-- {
		out[t] = hidx[0]
		hd[0], hidx[0] = hd[t], hidx[t]
		nnSiftDown(hd, hidx, 0, t)
	}
	out[0] = hidx[0]
	return out
}

// KNNWithin is KNNSelf restricted to the rows listed in candidates: it
// returns up to k of those rows nearest to the query (excluding self),
// ordered by increasing distance with ties on the lower row index. The
// result order depends only on (distance, row index), never on the order of
// candidates. Like KNNSelf it is O(len(candidates) + k log k) and reuses
// scratch and out across calls.
func KNNWithin(x *Matrix, query []float64, candidates []int, k int, m Metric, self int, scratch *NNScratch, out []int) []int {
	avail := 0
	for _, i := range candidates {
		if i != self {
			avail++
		}
	}
	if k > avail {
		k = avail
	}
	if k <= 0 {
		if out == nil {
			return []int{}
		}
		return out[:0]
	}
	if cap(scratch.dist) < k {
		scratch.dist = make([]float64, k)
		scratch.idx = make([]int, k)
	}
	hd := scratch.dist[:k]
	hidx := scratch.idx[:k]
	sz := 0
	for _, i := range candidates {
		if i == self {
			continue
		}
		d := distance(m, x.Row(i), query)
		if sz == k {
			if d > hd[0] || (d == hd[0] && i > hidx[0]) {
				continue
			}
			hd[0], hidx[0] = d, i
			nnSiftDown(hd, hidx, 0, sz)
			continue
		}
		hd[sz], hidx[sz] = d, i
		sz++
		nnSiftUp(hd, hidx, sz-1)
	}
	if cap(out) < sz {
		out = make([]int, sz)
	}
	out = out[:sz]
	for t := sz - 1; t > 0; t-- {
		out[t] = hidx[0]
		hd[0], hidx[0] = hd[t], hidx[t]
		nnSiftDown(hd, hidx, 0, t)
	}
	out[0] = hidx[0]
	return out
}

// KNN returns the indices of the k nearest rows of x to the query (excluding
// rows listed in exclude), ordered by increasing distance. Ties break on the
// lower index so results are deterministic. Callers that always exclude at
// most one row (ReliefF, MCFS, landmarking) hit a map-free fast path; use
// KNNSelf directly to also reuse scratch across queries.
func KNN(x *Matrix, query []float64, k int, m Metric, exclude map[int]bool) []int {
	if len(exclude) <= 1 {
		self := -1
		for i, v := range exclude {
			if v {
				self = i
			}
		}
		var scratch NNScratch
		return KNNSelf(x, query, k, m, self, &scratch, nil)
	}
	n := x.Rows
	avail := 0
	for i := 0; i < n; i++ {
		if !exclude[i] {
			avail++
		}
	}
	if k > avail {
		k = avail
	}
	if k <= 0 {
		return []int{}
	}
	hd := make([]float64, k)
	hidx := make([]int, k)
	sz := 0
	for i := 0; i < n; i++ {
		if exclude[i] {
			continue
		}
		d := distance(m, x.Row(i), query)
		if sz == k {
			if d > hd[0] || (d == hd[0] && i > hidx[0]) {
				continue
			}
			hd[0], hidx[0] = d, i
			nnSiftDown(hd, hidx, 0, sz)
			continue
		}
		hd[sz], hidx[sz] = d, i
		sz++
		nnSiftUp(hd, hidx, sz-1)
	}
	out := make([]int, sz)
	for t := sz - 1; t > 0; t-- {
		out[t] = hidx[0]
		hd[0], hidx[0] = hd[t], hidx[t]
		nnSiftDown(hd, hidx, 0, t)
	}
	out[0] = hidx[0]
	return out
}
