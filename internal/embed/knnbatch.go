package embed

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/vecmath"
)

// The k-NN engine: every search entry point — exact (KNN, KNNBatch, AllKNN,
// KNNSubset, MostSimilar) and through the index (ivf.go) — offers candidate
// rows to one fixed-size partial-selection heap, one dot product and one
// push per candidate; exact and IVF search differ only in which rows they
// offer. Batch entry points fan queries out through each; because a query's
// result depends only on that query and the (immutable) matrix, and ties
// break on the total order (similarity desc, row asc), the output is
// byte-identical for any worker count.

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

// sorted returns the selected neighbours ordered by decreasing similarity
// (ties toward the lower row), as a fresh slice.
func (t *topK) sorted() []Neighbor {
	return t.sortedInto(nil)
}

// sortedInto is sorted with a caller-owned buffer, so batch loops can reuse
// one slice per worker instead of allocating per query.
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

// scan leaves in sc.top the k rows most cosine-similar to the query vector
// q, excluding row self (pass self < 0 to exclude nothing) and, when mask is
// non-nil, every row it does not mark.
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

// KNNBatch returns, for each requested row, its k nearest neighbours — the
// same result as calling KNN per row, fanned out across Parallelism()
// workers. Output is byte-identical to the serial path for any worker count.
func (s *Space) KNNBatch(rows []int, k int) [][]Neighbor {
	out := make([][]Neighbor, len(rows))
	if k <= 0 || s.Len() <= 1 {
		return out
	}
	each(len(rows), s.batchWorkers(len(rows), s.Len()), func(i int, sc *knnScratch) {
		s.scan(s.Row(rows[i]), rows[i], k, sc, nil)
		out[i] = sc.top.sorted()
	})
	return out
}

// AllKNN computes KNN for every row. With rows ~ tens of thousands this is
// the dominant O(n²·V) cost of the analysis stage (the §7 k'-NN graph sits
// on it), so it fans out across Parallelism() workers; results are
// byte-identical to the serial path regardless of worker count.
func (s *Space) AllKNN(k int) [][]Neighbor {
	rows := make([]int, s.Len())
	for i := range rows {
		rows[i] = i
	}
	return s.KNNBatch(rows, k)
}

// KNNSubset returns, for each query row, its k nearest neighbours drawn
// only from the candidate rows (the query itself never matches) — the
// labeled-neighbour-aware selection the LOO classifier needs, computed in
// one pass instead of a rescan-and-filter loop. Both slices hold row
// indices; candidates should be sorted ascending for the deterministic
// tie-break to mean "lower row wins". Fans out across Parallelism()
// workers; output is byte-identical for any worker count.
func (s *Space) KNNSubset(queries, candidates []int, k int) [][]Neighbor {
	out := make([][]Neighbor, len(queries))
	s.KNNSubsetEach(queries, candidates, k, func(qi int, nn []Neighbor) {
		out[qi] = append([]Neighbor(nil), nn...)
	})
	return out
}

// KNNSubsetEach is KNNSubset in callback form: fn is invoked once per query
// with the query's position qi in queries and its sorted neighbours. The
// neighbour slice is reused between calls — copy it to retain it. fn runs
// concurrently from the engine's workers (never twice for the same qi), so
// it must only touch qi-indexed state or its own locals.
func (s *Space) KNNSubsetEach(queries, candidates []int, k int, fn func(qi int, nn []Neighbor)) {
	if k <= 0 || len(candidates) == 0 {
		return
	}
	dim := s.Dim
	each(len(queries), s.batchWorkers(len(queries), len(candidates)), func(qi int, sc *knnScratch) {
		q := queries[qi]
		qv := s.Row(q)
		sc.top.reset(k)
		for _, row := range candidates {
			if row != q {
				sc.top.push(row, float64(vecmath.Dot(qv, s.rows[row*dim:])))
			}
		}
		sc.nn = sc.top.sortedInto(sc.nn)
		fn(qi, sc.nn)
	})
}
