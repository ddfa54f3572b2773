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

// KNN returns up to k of the rows of x listed in rows nearest to the query,
// skipping the row self (pass self < 0 to skip none), ordered by increasing
// distance with ties broken on the lower row index. The order depends only on
// (distance, row index), never on the order of rows. It runs in
// O(len(rows) + k log k) with a bounded max-heap instead of sorting every
// candidate: a row no better than the current k-th best is rejected in O(1).
// scratch is reused across calls; out is reused when its capacity allows, so
// steady-state queries allocate nothing. The result is never nil.
func KNN(x *Matrix, query []float64, rows []int, k int, m Metric, self int, scratch *NNScratch, out []int) []int {
	if out == nil {
		out = []int{}
	}
	k = min(k, len(rows))
	if k <= 0 {
		return out[:0]
	}
	if cap(scratch.dist) < k {
		scratch.dist = make([]float64, k)
		scratch.idx = make([]int, k)
	}
	hd := scratch.dist[:k]
	hidx := scratch.idx[:k]
	sz := 0
	for _, i := range rows {
		if i == self {
			continue
		}
		d := distance(m, x.Row(i), query)
		if sz < k {
			hd[sz], hidx[sz] = d, i
			sz++
			nnSiftUp(hd, hidx, sz-1)
			continue
		}
		if d > hd[0] || (d == hd[0] && i > hidx[0]) {
			continue
		}
		hd[0], hidx[0] = d, i
		nnSiftDown(hd, hidx, 0, sz)
	}
	if cap(out) < sz {
		out = make([]int, sz)
	}
	out = out[:sz]
	// Pop the heap worst-first into the tail of out: the result comes out
	// sorted ascending by (distance, index), matching a full sort.
	for t := sz - 1; t >= 0; t-- {
		out[t] = hidx[0]
		hd[0], hidx[0] = hd[t], hidx[t]
		nnSiftDown(hd, hidx, 0, t)
	}
	return out
}
