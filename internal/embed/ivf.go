package embed

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/vecmath"
)

// The approximate-nearest-neighbour layer: an IVF (inverted-file) cell-probe
// index over the space. SphericalKMeans trains a coarse quantizer of Cells
// centroids; every row is filed under its nearest centroid; a query scans
// the centroids (cheap — there are ~√N of them), picks the NProbe closest
// cells, and runs the existing partial-selection-heap scan over only those
// cells' members. Scanned volume drops from N rows to roughly
// Cells + NProbe·N/Cells — at N = 543,900 (the paper's 30-day sender
// population) with √N cells and a single-digit probe count, that is a
// two-orders-of-magnitude cut.
//
// Determinism contract: a built index is immutable, cell member lists are
// sorted ascending, and both the coarse probe and the fine scan break ties
// on the engine's total order (similarity desc, then cell/row asc), so the
// neighbour lists for a given (space, seed, options) are byte-identical for
// any worker count — the same guarantee the exact engine gives.
//
// Recall is approximate by construction: a true neighbour filed under an
// unprobed cell is missed. BuildIVF therefore calibrates NProbe when it is
// not pinned: it takes a deterministic sample of rows, computes their exact
// top-k with the exact engine, and grows the probe count until the sampled
// recall@k reaches TargetRecall.

// IVFOptions parameterises BuildIVF. The zero value is a usable default:
// √N cells, 10 k-means iterations, NProbe calibrated to 0.99 recall@10 on a
// 256-row sample, float32 member scans.
type IVFOptions struct {
	// Cells is the number of coarse centroids (0 = round(√N), at least 1).
	Cells int
	// NProbe is the number of closest cells scanned per query
	// (0 = calibrate to TargetRecall).
	NProbe int
	// TargetRecall is the sampled recall@CalibrateK the calibration aims
	// for when NProbe is 0 (0 = 0.99). Calibration keeps the smallest probe
	// count that meets the target on the sample, so recall on other queries
	// lands a few points either side of it; the default is high enough that
	// what is delivered stays above 0.95.
	TargetRecall float64
	// CalibrateK is the neighbour count recall is measured at (0 = 10).
	CalibrateK int
	// CalibrateSample is the number of sampled query rows (0 = 256).
	CalibrateSample int
	// MaxIter bounds the k-means training iterations (0 = 10).
	MaxIter int
	// Seed drives the k-means seeding; same seed + options ⇒ identical index.
	Seed uint64
	// Quantized scans cell members through the int8-quantized row sidecar
	// (built on demand): 4x less memory read per candidate, with the
	// similarity error bounded by vecmath's quantization property tests.
	Quantized bool
}

// IVF is a built cell-probe index over one Space. Read-only after BuildIVF;
// safe for concurrent queries.
type IVF struct {
	s         *Space
	nprobe    int
	centroids []float32 // cells × dim, unit-normalised
	members   []int32   // rows grouped by cell, ascending within each cell
	cellStart []int32   // len cells+1; cell c owns members[cellStart[c]:cellStart[c+1]]
	quantized bool

	targetRecall float64 // calibration target (0 when NProbe was pinned)
	calibrated   float64 // sampled recall@CalibrateK measured at the chosen nprobe
	calibrateK   int
}

// IVFStats is the introspection snapshot /v1/model and the benchmarks
// report.
type IVFStats struct {
	Cells            int     `json:"cells"`
	NProbe           int     `json:"nprobe"`
	Rows             int     `json:"rows"`
	MeanCellRows     float64 `json:"mean_cell_rows"`
	MaxCellRows      int     `json:"max_cell_rows"`
	Quantized        bool    `json:"quantized"`
	TargetRecall     float64 `json:"target_recall,omitempty"`
	CalibratedRecall float64 `json:"calibrated_recall,omitempty"`
	VectorBytes      int64   `json:"vector_bytes"`
	QuantizedBytes   int64   `json:"quantized_bytes,omitempty"`
}

// ErrEmptySpace reports an index build over a space with no rows.
var ErrEmptySpace = errors.New("embed: cannot index an empty space")

// Quantize builds the int8 symmetric-quantized row sidecar (per-row scale,
// codes in [-127,127]): 4x smaller than the float32 matrix, feeding the
// quantized exact path and the IVF member scans. Idempotent; call before
// sharing the Space, like BuildIVF.
func (s *Space) Quantize() {
	if s.qrows != nil || s.Len() == 0 {
		return
	}
	n, dim := s.Len(), s.Dim
	qrows := make([]int8, n*dim)
	qscales := make([]float32, n)
	for i := 0; i < n; i++ {
		qscales[i] = vecmath.Quantize(qrows[i*dim:(i+1)*dim], s.Row(i))
	}
	s.qrows, s.qscales = qrows, qscales
}

// QuantizedRows reports whether the int8 sidecar has been built.
func (s *Space) QuantizedRows() bool { return s.qrows != nil }

// QuantizedRow returns row i's int8 codes and scale from the sidecar
// (shared storage; nil/0 when the sidecar is not built). Benchmarks drive
// the widened dot kernel through this.
func (s *Space) QuantizedRow(i int) ([]int8, float32) {
	if s.qrows == nil {
		return nil, 0
	}
	return s.qrows[i*s.Dim : (i+1)*s.Dim], s.qscales[i]
}

// VectorBytes returns the resident size of the float32 row matrix.
func (s *Space) VectorBytes() int64 { return int64(len(s.rows)) * 4 }

// QuantizedVectorBytes returns the resident size of the int8 sidecar
// (codes + per-row scales), 0 when not built.
func (s *Space) QuantizedVectorBytes() int64 {
	if s.qrows == nil {
		return 0
	}
	return int64(len(s.qrows)) + int64(len(s.qscales))*4
}

// SetANN attaches (or with nil detaches) an index so the *Approx entry
// points ride it. BuildIVF attaches automatically; this exists for callers
// that build indexes ahead of time or need to force the exact path.
func (s *Space) SetANN(ix *IVF) { s.ann = ix }

// ANN returns the attached index, nil when the space serves exact-only.
func (s *Space) ANN() *IVF { return s.ann }

// BuildIVF trains a cell-probe index over the space, attaches it, and
// returns it. Training reuses the spherical k-means the clustering stage
// runs (same seeding, same parallel assignment step). The build fails —
// leaving the space serving exact, nothing half-attached — on an empty
// space, non-finite vector data, or unsatisfiable options.
func (s *Space) BuildIVF(o IVFOptions) (*IVF, error) {
	n, dim := s.Len(), s.Dim
	if n == 0 {
		return nil, ErrEmptySpace
	}
	for i, v := range s.rows {
		if v != v || v > math.MaxFloat32 || v < -math.MaxFloat32 {
			return nil, fmt.Errorf("embed: non-finite vector data at row %d (%q)", i/dim, s.Words[i/dim])
		}
	}
	cells := o.Cells
	if cells == 0 {
		cells = int(math.Round(math.Sqrt(float64(n))))
	}
	if cells < 1 {
		return nil, fmt.Errorf("embed: invalid IVF cell count %d", o.Cells)
	}
	if cells > n {
		cells = n
	}
	maxIter := o.MaxIter
	if maxIter == 0 {
		maxIter = 10
	}
	assign, cent64, _ := s.SphericalKMeans(cells, maxIter, o.Seed)

	ix := &IVF{
		s:         s,
		centroids: make([]float32, cells*dim),
		members:   make([]int32, n),
		cellStart: make([]int32, cells+1),
		quantized: o.Quantized,
	}
	for i, v := range cent64 {
		ix.centroids[i] = float32(v)
	}
	// Counting sort rows into their cells; scanning rows in ascending order
	// keeps each member list ascending, which the determinism contract and
	// the subset bitmap scan both rely on.
	counts := make([]int32, cells)
	for _, c := range assign {
		counts[c]++
	}
	for c := 0; c < cells; c++ {
		ix.cellStart[c+1] = ix.cellStart[c] + counts[c]
	}
	next := append([]int32(nil), ix.cellStart[:cells]...)
	for row, c := range assign {
		ix.members[next[c]] = int32(row)
		next[c]++
	}
	if o.Quantized {
		s.Quantize()
	}

	if o.NProbe > 0 {
		ix.nprobe = o.NProbe
		if ix.nprobe > cells {
			ix.nprobe = cells
		}
	} else {
		if err := ix.calibrate(o); err != nil {
			return nil, err
		}
	}
	s.ann = ix
	return ix, nil
}

// calibrate picks the smallest nprobe whose sampled recall@CalibrateK meets
// TargetRecall: a baseline top-k for a deterministic strided row sample,
// then a doubling probe search refined by bisection. The baseline is the
// exhaustive scan at the index's own precision — float32 exact normally,
// the full quantized scan for a quantized index — so the measured recall
// isolates what cell probing loses (the knob being calibrated) from the
// separately-bounded quantization error, and the search always converges
// (exhaustive probing reproduces the baseline by construction). The sampled
// recall is stored for introspection; the true recall over all queries
// tracks it closely because the sample spans the whole row range.
func (ix *IVF) calibrate(o IVFOptions) error {
	n := ix.s.Len()
	cells := len(ix.cellStart) - 1
	target := o.TargetRecall
	if target == 0 {
		target = 0.99
	}
	if target < 0 || target > 1 {
		return fmt.Errorf("embed: invalid IVF target recall %v", target)
	}
	k := o.CalibrateK
	if k == 0 {
		k = 10
	}
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 || cells == 1 {
		// A 1-row space or a single cell: every probe is exhaustive.
		ix.nprobe = 1
		ix.targetRecall = target
		ix.calibrated = 1
		ix.calibrateK = k
		return nil
	}
	sample := o.CalibrateSample
	if sample == 0 {
		sample = 256
	}
	if sample > n {
		sample = n
	}
	queries := make([]int, sample)
	for i := range queries {
		queries[i] = i * n / sample // strided: deterministic, spans the space
	}
	atProbe := func(np int) [][]Neighbor {
		saved := ix.nprobe
		ix.nprobe = np
		defer func() { ix.nprobe = saved }()
		return ix.KNNBatch(queries, k)
	}
	var exact [][]Neighbor
	if ix.quantized {
		exact = atProbe(cells) // exhaustive quantized scan
	} else {
		exact = ix.s.KNNBatch(queries, k)
	}

	recallAt := func(np int) float64 {
		approx := atProbe(np)
		var hit, total int
		for qi := range queries {
			ids := make(map[int]bool, len(exact[qi]))
			for _, nb := range exact[qi] {
				ids[nb.Row] = true
			}
			total += len(exact[qi])
			for _, nb := range approx[qi] {
				if ids[nb.Row] {
					hit++
				}
			}
		}
		if total == 0 {
			return 1
		}
		return float64(hit) / float64(total)
	}

	// Double until the target is met (or every cell is probed), then bisect
	// down to the smallest satisfying probe count.
	hi := 1
	rec := recallAt(hi)
	for rec < target && hi < cells {
		hi *= 2
		if hi > cells {
			hi = cells
		}
		rec = recallAt(hi)
	}
	lo := hi / 2
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if r := recallAt(mid); r >= target {
			hi, rec = mid, r
		} else {
			lo = mid
		}
	}
	ix.nprobe = hi
	ix.targetRecall = target
	ix.calibrated = rec
	ix.calibrateK = k
	return nil
}

// NProbe returns the active probe count.
func (ix *IVF) NProbe() int { return ix.nprobe }

// Stats summarises the index for /v1/model and the benchmarks.
func (ix *IVF) Stats() IVFStats {
	cells := len(ix.cellStart) - 1
	st := IVFStats{
		Cells:            cells,
		NProbe:           ix.nprobe,
		Rows:             len(ix.members),
		Quantized:        ix.quantized,
		TargetRecall:     ix.targetRecall,
		CalibratedRecall: ix.calibrated,
		VectorBytes:      ix.s.VectorBytes(),
		QuantizedBytes:   ix.s.QuantizedVectorBytes(),
	}
	if cells > 0 {
		st.MeanCellRows = float64(len(ix.members)) / float64(cells)
	}
	for c := 0; c < cells; c++ {
		if sz := int(ix.cellStart[c+1] - ix.cellStart[c]); sz > st.MaxCellRows {
			st.MaxCellRows = sz
		}
	}
	return st
}

// scan is the per-query cell-probe search: coarse centroid pass into the
// scratch cell heap, then the fine member scan through the shared selection
// heap. cand, when non-nil, restricts hits to marked rows (the classifier's
// labeled-subset pass); self is excluded as in the exact engine.
func (ix *IVF) scan(q []float32, self, k int, sc *knnScratch, cand []bool) []Neighbor {
	return ix.scanInto(q, self, k, sc, cand, nil)
}

func (ix *IVF) scanInto(q []float32, self, k int, sc *knnScratch, cand []bool, buf []Neighbor) []Neighbor {
	s := ix.s
	dim := s.Dim
	cells := len(ix.cellStart) - 1

	// Coarse probe: exact float32 scan over the (tiny) centroid matrix.
	sc.cells.reset(ix.nprobe)
	for c := 0; c < cells; c++ {
		sc.cells.push(c, float64(vecmath.Dot(q, ix.centroids[c*dim:])))
	}
	sc.probes = sc.cells.sortedInto(sc.probes)

	sc.top.reset(k)
	if ix.quantized && s.qrows != nil {
		// Quantize the query once, then the member scan reads a quarter of
		// the bytes per candidate. Similarities are reconstructed as
		// scaleQ·scaleRow·⟨int8,int8⟩ — deterministic, with error bounded by
		// vecmath.QuantizedDotBound.
		if cap(sc.qq) < dim {
			sc.qq = make([]int8, dim)
		}
		sc.qq = sc.qq[:dim]
		qscale := float64(vecmath.Quantize(sc.qq, q))
		for _, p := range sc.probes {
			c := p.Row
			for _, row32 := range ix.members[ix.cellStart[c]:ix.cellStart[c+1]] {
				row := int(row32)
				if row == self || (cand != nil && !cand[row]) {
					continue
				}
				sim := qscale * float64(s.qscales[row]) *
					float64(vecmath.DotInt8(sc.qq, s.qrows[row*dim:(row+1)*dim]))
				sc.top.push(row, sim)
			}
		}
	} else {
		for _, p := range sc.probes {
			c := p.Row
			for _, row32 := range ix.members[ix.cellStart[c]:ix.cellStart[c+1]] {
				row := int(row32)
				if row == self || (cand != nil && !cand[row]) {
					continue
				}
				sc.top.push(row, float64(vecmath.Dot(q, s.rows[row*dim:])))
			}
		}
	}
	return sc.top.sortedInto(buf)
}

// KNN returns the approximate k nearest neighbours of row i through the
// index, same ordering contract as Space.KNN.
func (ix *IVF) KNN(i, k int) []Neighbor { return ix.KNNMasked(i, k, nil) }

// KNNMasked mirrors Space.KNNMasked through the index: the approximate top-k
// of row i among the rows mask marks (nil admits every row), on pooled
// scratch. The list is empty when the probed cells hold no marked row —
// callers needing completeness (the classifier) re-run those exactly.
func (ix *IVF) KNNMasked(i, k int, mask []bool) []Neighbor {
	if k <= 0 || ix.s.Len() <= 1 {
		return nil
	}
	sc := getScratch(ix.s.Len())
	nn := ix.scan(ix.s.Row(i), i, k, sc, mask)
	putScratch(sc)
	return nn
}

// approxPerQuery estimates the rows touched per query — the coarse centroid
// pass plus the expected probed-member volume — for the auto-serial
// fallback.
func (ix *IVF) approxPerQuery() int {
	cells := len(ix.cellStart) - 1
	if cells == 0 {
		return 1
	}
	return cells + ix.nprobe*(len(ix.members)/cells+1)
}

// KNNBatch is the batched form of KNN: one approximate scan per requested
// row, fanned out across the space's workers, byte-identical to serial.
func (ix *IVF) KNNBatch(rows []int, k int) [][]Neighbor {
	out := make([][]Neighbor, len(rows))
	if k <= 0 || ix.s.Len() <= 1 || len(rows) == 0 {
		return out
	}
	workers := ix.s.batchWorkers(len(rows), ix.approxPerQuery())
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers <= 1 {
		sc := newKNNScratch(ix.s.Len())
		for i, r := range rows {
			out[i] = append([]Neighbor(nil), ix.scan(ix.s.Row(r), r, k, sc, nil)...)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newKNNScratch(ix.s.Len())
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rows) {
					return
				}
				out[i] = append([]Neighbor(nil), ix.scan(ix.s.Row(rows[i]), rows[i], k, sc, nil)...)
			}
		}()
	}
	wg.Wait()
	return out
}

// KNNSubsetEach mirrors Space.KNNSubsetEach through the index: for each
// query row, the approximate top-k drawn only from candidate rows. fn runs
// concurrently from the workers (never twice for the same qi) with a reused
// neighbour slice. Queries whose probed cells contain no candidates receive
// an empty list — callers needing completeness (the classifier) re-run
// those through the exact subset pass.
func (ix *IVF) KNNSubsetEach(queries, candidates []int, k int, fn func(qi int, nn []Neighbor)) {
	if k <= 0 || len(queries) == 0 || len(candidates) == 0 {
		return
	}
	cand := make([]bool, ix.s.Len())
	for _, r := range candidates {
		cand[r] = true
	}
	workers := ix.s.batchWorkers(len(queries), ix.approxPerQuery())
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		sc := newKNNScratch(ix.s.Len())
		var buf []Neighbor
		for qi, q := range queries {
			buf = ix.scanInto(ix.s.Row(q), q, k, sc, cand, buf)
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
			sc := newKNNScratch(ix.s.Len())
			var buf []Neighbor
			for {
				qi := int(next.Add(1)) - 1
				if qi >= len(queries) {
					return
				}
				buf = ix.scanInto(ix.s.Row(queries[qi]), queries[qi], k, sc, cand, buf)
				fn(qi, buf)
			}
		}()
	}
	wg.Wait()
}

// KNNApprox answers through the attached index, or exactly when none is
// attached — mirroring KNN so callers can always ask for the approximate
// path and degrade to exact transparently.
func (s *Space) KNNApprox(i, k int) []Neighbor {
	if s.ann == nil {
		return s.KNN(i, k)
	}
	return s.ann.KNN(i, k)
}

// MostSimilarApprox is MostSimilar through the attached index (exact when
// none), resolving neighbours to words.
func (s *Space) MostSimilarApprox(word string, k int) ([]Similar, bool) {
	if s.ann == nil {
		return s.MostSimilar(word, k)
	}
	i, ok := s.index[word]
	if !ok {
		return nil, false
	}
	nn := s.ann.KNN(i, k)
	out := make([]Similar, len(nn))
	for j, n := range nn {
		out[j] = Similar{Word: s.Words[n.Row], Sim: n.Sim}
	}
	return out, true
}
