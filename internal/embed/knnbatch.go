package embed

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/vecmath"
)

// The batched k-NN engine: every exact-search entry point (KNN, KNNBatch,
// AllKNN, MostSimilar, the classifier and the k'-NN graph) funnels into
// knnScan, a blocked row-major scan with a reusable scratch similarity
// buffer and a fixed-size partial-selection heap. Parallel paths fan rows
// out across workers; because each row's result depends only on that row and
// the (immutable) matrix, and ties break on the total order
// (similarity desc, row asc), the output is byte-identical for any worker
// count.

// knnBlock is the number of candidate rows scanned per scratch refill. At
// dim 50 a block is ~100KB of matrix — comfortably inside L2 — and the
// similarity buffer stays at 4KB.
const knnBlock = 512

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
// (BENCH_perf.json showed 4-proc runs losing to serial at benchmark scale),
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

// knnScratch is the per-worker reusable state of a scan. The trailing
// fields are only used by the approximate paths (ivf.go): a second
// selection heap for the coarse cell probe, its sorted output buffer, and
// the quantized form of the current query.
type knnScratch struct {
	sims []float64
	top  topK

	cells  topK
	probes []Neighbor
	qq     []int8
}

func newKNNScratch(n int) *knnScratch {
	b := knnBlock
	if n < b {
		b = n
	}
	return &knnScratch{sims: make([]float64, b)}
}

// scratchPool recycles scratch for the single-query entry points (KNN,
// Analogy): the batch paths amortise one scratch per worker across a whole
// run, but a lone query would otherwise pay a fresh block-buffer allocation
// per call.
var scratchPool = sync.Pool{New: func() interface{} { return new(knnScratch) }}

func getScratch(n int) *knnScratch {
	want := knnBlock
	if n < want {
		want = n
	}
	sc := scratchPool.Get().(*knnScratch)
	if len(sc.sims) < want {
		sc.sims = make([]float64, want)
	}
	return sc
}

func putScratch(sc *knnScratch) { scratchPool.Put(sc) }

// knnScan selects the k rows most cosine-similar to the query vector q,
// excluding row self (pass self < 0 to exclude nothing) and, when mask is
// non-nil, every row it does not mark. The scan is blocked:
// similarities land in the scratch buffer block by block while the selection
// heap consumes them in the same pass — the heap's inlined fast-reject keeps
// the per-candidate cost at one compare once the heap is full.
func (s *Space) knnScan(q []float32, self, k int, sc *knnScratch, mask []bool) []Neighbor {
	n := s.Len()
	sc.top.reset(k)
	dim := s.Dim
	for b0 := 0; b0 < n; b0 += len(sc.sims) {
		b1 := b0 + len(sc.sims)
		if b1 > n {
			b1 = n
		}
		sims := sc.sims[:b1-b0]
		block := s.rows[b0*dim : b1*dim]
		for j := range sims {
			row := b0 + j
			if mask != nil && !mask[row] {
				continue
			}
			sims[j] = float64(vecmath.Dot(q, block[j*dim:]))
			if row != self {
				sc.top.push(row, sims[j])
			}
		}
	}
	return sc.top.sorted()
}

// KNNBatch returns, for each requested row, its k nearest neighbours — the
// same result as calling KNN per row, computed with the engine's blocked
// scans fanned out across Parallelism() workers. Output is byte-identical
// to the serial path for any worker count.
func (s *Space) KNNBatch(rows []int, k int) [][]Neighbor {
	return s.knnBatch(rows, k, s.batchWorkers(len(rows), s.Len()))
}

func (s *Space) knnBatch(rows []int, k int, workers int) [][]Neighbor {
	out := make([][]Neighbor, len(rows))
	if k <= 0 || s.Len() <= 1 || len(rows) == 0 {
		return out
	}
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers <= 1 {
		sc := newKNNScratch(s.Len())
		for i, r := range rows {
			out[i] = s.knnScan(s.Row(r), r, k, sc, nil)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newKNNScratch(s.Len())
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rows) {
					return
				}
				out[i] = s.knnScan(s.Row(rows[i]), rows[i], k, sc, nil)
			}
		}()
	}
	wg.Wait()
	return out
}

// AllKNN computes KNN for every row in parallel. With rows ~ tens of
// thousands this is the dominant O(n²·V) cost of the analysis stage (the §6
// classifier, the §7 k'-NN graph and the silhouette sweep all sit on it), so
// it fans out across Parallelism() workers; results are byte-identical to
// the serial path regardless of worker count.
func (s *Space) AllKNN(k int) [][]Neighbor {
	return s.allKNNWorkers(k, s.batchWorkers(s.Len(), s.Len()))
}

// AllKNNParallel is AllKNN with an explicit worker count (workers <= 0 uses
// GOMAXPROCS). Retained for callers that pin parallelism independently of
// the space's MaxProcs setting.
func (s *Space) AllKNNParallel(k, workers int) [][]Neighbor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return s.allKNNWorkers(k, workers)
}

func (s *Space) allKNNWorkers(k, workers int) [][]Neighbor {
	rows := make([]int, s.Len())
	for i := range rows {
		rows[i] = i
	}
	return s.knnBatch(rows, k, workers)
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
	if k <= 0 || len(queries) == 0 || len(candidates) == 0 {
		return
	}
	workers := s.batchWorkers(len(queries), len(candidates))
	if workers > len(queries) {
		workers = len(queries)
	}
	one := func(q int, sc *knnScratch, buf []Neighbor) []Neighbor {
		dim := s.Dim
		qv := s.Row(q)
		sc.top.reset(k)
		for b0 := 0; b0 < len(candidates); b0 += len(sc.sims) {
			b1 := b0 + len(sc.sims)
			if b1 > len(candidates) {
				b1 = len(candidates)
			}
			sims := sc.sims[:b1-b0]
			for j, row := range candidates[b0:b1] {
				sims[j] = float64(vecmath.Dot(qv, s.rows[row*dim:]))
				if row != q {
					sc.top.push(row, sims[j])
				}
			}
		}
		return sc.top.sortedInto(buf)
	}
	if workers <= 1 {
		sc := newKNNScratch(len(candidates))
		var buf []Neighbor
		for qi, q := range queries {
			buf = one(q, sc, buf)
			fn(qi, buf)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newKNNScratch(len(candidates))
			var buf []Neighbor
			for {
				qi := int(next.Add(1)) - 1
				if qi >= len(queries) {
					return
				}
				buf = one(queries[qi], sc, buf)
				fn(qi, buf)
			}
		}()
	}
	wg.Wait()
}
