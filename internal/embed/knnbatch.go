package embed

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/vecmath"
)

// The k-NN engine. Each engine has one search method with one signature:
// Space.Search scans every row, IVF.Search (ivf.go) only the rows of the
// probed cells. Both run through search, which caps k, fans queries out
// through each, and offers candidate rows to one fixed-size
// partial-selection heap, one dot product and one push per candidate; the
// two differ only in which rows they offer. Because a query's result
// depends only on that query and the (immutable) matrix, and ties break on
// the total order (similarity desc, row asc), the output is byte-identical
// for any worker count and does not depend on the order rows are offered.
// KNN, AllKNN, MostSimilar and KNNApprox are list-returning forms over
// Search; IVF.KNN and IVF.KNNSubsetEach are the same for the index.

// Parallelism resolves the worker count the batched engine and the
// row-parallel consumers (classifier, silhouette, k-means) use: MaxProcs
// when set, else GOMAXPROCS.
func (s *Space) Parallelism() int {
	if s.MaxProcs > 0 {
		return s.MaxProcs
	}
	return runtime.GOMAXPROCS(0)
}

// knnSerialCutoff is the scan volume — queries × rows-scanned-per-query ×
// dim multiply-adds — below which the automatic worker choice takes the
// serial path. Mirrors the corpus builder's serialCutoff: at small batch
// sizes goroutine spawn and cache-line hand-off dominate the arithmetic
// (the same small-input regime where bench/README's "Parallel = serial"
// table measures `corpus.build_speedup` at only 1.0–1.2× on two cores),
// and because parallel output is byte-identical to serial, the fallback is
// invisible except in wall-clock.
const knnSerialCutoff = 1 << 21

// batchWorkers resolves the fan-out for a batch of queries each scanning
// perQuery candidate rows. An explicit MaxProcs is honoured as-is (tests pin
// both paths with it); only the automatic choice falls back to serial under
// the cutoff.
func (s *Space) batchWorkers(queries int, perQuery int) int {
	if s.MaxProcs == 0 &&
		int64(queries)*int64(perQuery)*int64(s.Dim) < knnSerialCutoff {
		return 1
	}
	return s.Parallelism()
}

// topK is a fixed-capacity partial-selection min-heap over the total order
// "similarity descending, then row ascending": the root is the worst
// neighbour kept so far, and a candidate enters only if it beats the root
// under that order. Manual sifting (no container/heap interface) keeps the
// per-candidate cost to a compare and, rarely, a sift.
type topK struct {
	h []Neighbor
	k int
}

// worse reports whether a ranks strictly below b in the neighbour order.
func worse(a, b Neighbor) bool {
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.Row > b.Row
}

func (t *topK) reset(k int) {
	t.k = k
	if cap(t.h) < k {
		t.h = make([]Neighbor, 0, k)
	} else {
		t.h = t.h[:0]
	}
}

// push offers a candidate to the heap. The body is small enough to inline,
// so the common case — heap full, candidate strictly below the root — costs
// one compare and no call; everything else goes to pushSlow.
func (t *topK) push(row int, sim float64) {
	if len(t.h) == t.k && sim < t.h[0].Sim {
		return
	}
	t.pushSlow(row, sim)
}

func (t *topK) pushSlow(row int, sim float64) {
	cand := Neighbor{Row: row, Sim: sim}
	if len(t.h) < t.k {
		t.h = append(t.h, cand)
		// Sift up.
		i := len(t.h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(t.h[i], t.h[p]) {
				break
			}
			t.h[i], t.h[p] = t.h[p], t.h[i]
			i = p
		}
		return
	}
	if !worse(t.h[0], cand) {
		return
	}
	// Replace the root and sift down.
	t.h[0] = cand
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(t.h) && worse(t.h[l], t.h[small]) {
			small = l
		}
		if r < len(t.h) && worse(t.h[r], t.h[small]) {
			small = r
		}
		if small == i {
			return
		}
		t.h[i], t.h[small] = t.h[small], t.h[i]
		i = small
	}
}

// sortedInto returns the selected neighbours ordered by decreasing
// similarity (ties toward the lower row) in a caller-owned buffer, so batch
// loops reuse one slice per worker instead of allocating per query.
func (t *topK) sortedInto(buf []Neighbor) []Neighbor {
	out := append(buf[:0], t.h...)
	sort.Slice(out, func(a, b int) bool { return worse(out[b], out[a]) })
	return out
}

// knnScratch is the per-worker reusable state of a scan: the selection
// heap, the reused neighbour list the callback entry points hand out, and —
// for the index paths (ivf.go) — a second heap for the coarse cell probe
// with its sorted output.
type knnScratch struct {
	top topK
	nn  []Neighbor

	cells  topK
	probes []Neighbor
}

// scratchPool recycles scratch — the heaps' backing arrays — across queries
// and batches, so a lone query allocates only the neighbour list it returns.
var scratchPool = sync.Pool{New: func() interface{} { return new(knnScratch) }}

// each runs fn(i, scratch) for every i in [0, n) on up to workers
// goroutines, one scratch per worker, never twice for the same i; workers
// <= 1 runs inline. Workers draw the next i from a shared counter, so a slow
// query does not stall a pre-assigned chunk.
func each(n, workers int, fn func(i int, sc *knnScratch)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := scratchPool.Get().(*knnScratch)
		for i := 0; i < n; i++ {
			fn(i, sc)
		}
		scratchPool.Put(sc)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*knnScratch)
			defer scratchPool.Put(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, sc)
			}
		}()
	}
	wg.Wait()
}

// searchFunc is the signature both engines' Search share.
type searchFunc = func(queries []int, k int, mask []bool, fn func(qi int, nn []Neighbor))

// Search finds, for each query row, the k rows most cosine-similar to it
// among the rows mask marks (len(mask) == Len(); nil marks every row). The
// query row never matches itself. Each list is ordered by similarity
// descending, then row ascending. k <= 0 calls nothing; otherwise fn runs
// exactly once per query, with the query's position qi in queries and its
// list, which is empty when no row qualifies. The list is reused between
// calls — copy it to retain it — and fn runs concurrently from the
// engine's workers (never twice for the same qi), so it must touch only
// qi-indexed state or its own locals. Output is byte-identical for any
// worker count.
func (s *Space) Search(queries []int, k int, mask []bool, fn func(qi int, nn []Neighbor)) {
	s.search(queries, k, s.Len(), fn, func(q, k int, sc *knnScratch) {
		s.scan(s.Row(q), q, k, sc, mask)
	})
}

// search is the driver behind both engines' Search: perQuery estimates the
// rows one query scans (for the auto-serial choice) and scan leaves a
// query's top k in sc.top. k is capped at the rows a query can match before
// anything sizes a heap.
func (s *Space) search(queries []int, k, perQuery int, fn func(qi int, nn []Neighbor), scan func(q, k int, sc *knnScratch)) {
	if k <= 0 {
		return
	}
	k = min(k, s.Len()-1)
	each(len(queries), s.batchWorkers(len(queries), perQuery), func(qi int, sc *knnScratch) {
		sc.nn = sc.nn[:0]
		if k > 0 {
			scan(queries[qi], k, sc)
			sc.nn = sc.top.sortedInto(sc.nn)
		}
		fn(qi, sc.nn)
	})
}

// collect runs search and returns a copy of every query's list (nil where
// it is empty, and every list nil when k <= 0).
func collect(search searchFunc, queries []int, k int, mask []bool) [][]Neighbor {
	out := make([][]Neighbor, len(queries))
	search(queries, k, mask, func(qi int, nn []Neighbor) {
		out[qi] = append([]Neighbor(nil), nn...)
	})
	return out
}

// scan leaves in sc.top the k rows most cosine-similar to the query vector
// q, excluding row self and, when mask is non-nil, every row it does not
// mark.
func (s *Space) scan(q []float32, self, k int, sc *knnScratch, mask []bool) {
	sc.top.reset(k)
	n, dim := s.Len(), s.Dim
	for row := 0; row < n; row++ {
		if row == self || (mask != nil && !mask[row]) {
			continue
		}
		sc.top.push(row, float64(vecmath.Dot(q, s.rows[row*dim:])))
	}
}

// AllKNN returns the k nearest neighbours of every row, in row order. With
// rows ~ tens of thousands this is the dominant O(n²·V) cost of the
// analysis stage (the §7 k'-NN graph sits on it).
func (s *Space) AllKNN(k int) [][]Neighbor {
	rows := make([]int, s.Len())
	for i := range rows {
		rows[i] = i
	}
	return collect(s.Search, rows, k, nil)
}
