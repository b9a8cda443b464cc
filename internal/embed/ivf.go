package embed

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/vecmath"
)

// The approximate-nearest-neighbour layer: an IVF (inverted-file) cell-probe
// index over the space. SphericalKMeans trains a coarse quantizer of Cells
// centroids; every row is filed under its nearest centroid; a query scans
// the centroids (cheap — there are ~√N of them), picks the NProbe closest
// cells, and offers only those cells' members to the engine's selection
// heap (knnbatch.go). Scanned volume drops from N rows to roughly
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
// recall@k reaches ivfTargetRecall.

// What every served index is built to: the sampled recall@ivfCalibrateK the
// probe count is calibrated to, over ivfCalibrateSample query rows, on a
// quantizer trained for ivfKMeansIters iterations. Calibration keeps the
// smallest probe count that meets the target on the sample, so recall on
// other queries lands a little either side of it (within about a point).
const (
	ivfTargetRecall    = 0.99
	ivfCalibrateK      = 10
	ivfCalibrateSample = 256
	ivfKMeansIters     = 10
)

// IVFOptions parameterises BuildIVF. The zero value is what the daemon
// serves: √N cells, NProbe calibrated to ivfTargetRecall.
type IVFOptions struct {
	// Cells is the number of coarse centroids (0 = round(√N), at least 1).
	Cells int
	// NProbe is the number of closest cells scanned per query (0 =
	// calibrate). Tests pin it, with Cells, to build their exhaustive and
	// one-probe oracles; a pinned index reports no measured recall.
	NProbe int
	// Seed drives the k-means seeding; same seed + options ⇒ identical index.
	Seed uint64
}

// IVF is a built cell-probe index over one Space. Read-only after BuildIVF;
// safe for concurrent queries.
type IVF struct {
	s         *Space
	nprobe    int
	centroids []float32 // cells × dim, unit-normalised
	members   []int32   // rows grouped by cell, ascending within each cell
	cellStart []int32   // len cells+1; cell c owns members[cellStart[c]:cellStart[c+1]]

	targetRecall float64 // ivfTargetRecall (0 when NProbe was pinned)
	calibrated   float64 // sampled recall@ivfCalibrateK measured at the chosen nprobe

	// shortReruns counts KNNApprox answers re-run exactly because the probed
	// cells held fewer than the k rows asked for.
	shortReruns atomic.Int64
}

// IVFStats is the introspection snapshot /v1/model and the benchmarks
// report.
type IVFStats struct {
	Cells            int     `json:"cells"`
	NProbe           int     `json:"nprobe"`
	Rows             int     `json:"rows"`
	MeanCellRows     float64 `json:"mean_cell_rows"`
	MaxCellRows      int     `json:"max_cell_rows"`
	TargetRecall     float64 `json:"target_recall,omitempty"`
	CalibratedRecall float64 `json:"calibrated_recall,omitempty"`
	VectorBytes      int64   `json:"vector_bytes"`
	// SimilarExactFallbacks counts Space.KNNApprox / MostSimilarApprox
	// answers the probed cells left short of k and the exact engine re-ran.
	SimilarExactFallbacks int64 `json:"similar_exact_fallbacks,omitempty"`
}

// ErrEmptySpace reports an index build over a space with no rows.
var ErrEmptySpace = errors.New("embed: cannot index an empty space")

// VectorBytes returns the resident size of the float32 row matrix.
func (s *Space) VectorBytes() int64 { return int64(len(s.rows)) * 4 }

// ANN returns the attached index, nil when the space serves exact-only.
func (s *Space) ANN() *IVF { return s.ann }

// BuildIVF trains a cell-probe index over the space, attaches it, and
// returns it. Training reuses the spherical k-means the clustering stage
// runs (same seeding, same parallel assignment step). The build fails —
// leaving the space serving exact, nothing half-attached — on an empty
// space, non-finite vector data, or a negative cell count.
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
	assign, cent64, _ := s.SphericalKMeans(cells, ivfKMeansIters, o.Seed)

	ix := &IVF{
		s:         s,
		centroids: make([]float32, cells*dim),
		members:   make([]int32, n),
		cellStart: make([]int32, cells+1),
	}
	for i, v := range cent64 {
		ix.centroids[i] = float32(v)
	}
	// Counting sort rows into their cells; scanning rows in ascending order
	// keeps each member list ascending.
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
	if o.NProbe > 0 {
		ix.nprobe = min(o.NProbe, cells)
	} else {
		ix.calibrate()
	}
	s.ann = ix
	return ix, nil
}

// calibrate picks the smallest nprobe whose sampled recall@ivfCalibrateK
// against the exact engine meets ivfTargetRecall: an exact top-k for a
// deterministic strided row sample, then a doubling probe search refined by
// bisection. The search always converges (exhaustive probing reproduces the
// exact answer by construction). The sampled recall is stored for
// introspection; the true recall over all queries tracks it closely because
// the sample spans the whole row range.
func (ix *IVF) calibrate() {
	n := ix.s.Len()
	cells := len(ix.cellStart) - 1
	ix.targetRecall = ivfTargetRecall
	k := min(ivfCalibrateK, n-1)
	if k <= 0 || cells == 1 {
		// A 1-row space or a single cell: every probe is exhaustive.
		ix.nprobe = 1
		ix.calibrated = 1
		return
	}
	queries := make([]int, min(ivfCalibrateSample, n))
	for i := range queries {
		queries[i] = i * n / len(queries) // strided: deterministic, spans the space
	}
	exact := collect(ix.s.Search, queries, k, nil)

	recallAt := func(np int) float64 {
		ix.nprobe = np
		approx := collect(ix.Search, queries, k, nil)
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
	for rec < ivfTargetRecall && hi < cells {
		hi = min(hi*2, cells)
		rec = recallAt(hi)
	}
	lo := hi / 2
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if r := recallAt(mid); r >= ivfTargetRecall {
			hi, rec = mid, r
		} else {
			lo = mid
		}
	}
	ix.nprobe = hi
	ix.calibrated = rec
}

// Stats summarises the index for /v1/model and the benchmarks.
func (ix *IVF) Stats() IVFStats {
	cells := len(ix.cellStart) - 1
	st := IVFStats{
		Cells:            cells,
		NProbe:           ix.nprobe,
		Rows:             len(ix.members),
		TargetRecall:     ix.targetRecall,
		CalibratedRecall: ix.calibrated,
		VectorBytes:      ix.s.VectorBytes(),

		SimilarExactFallbacks: ix.shortReruns.Load(),
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
// scratch cell heap, then the probed cells' members into sc.top. mask, when
// non-nil, restricts hits to marked rows; self is excluded as in the exact
// engine.
func (ix *IVF) scan(q []float32, self, k int, sc *knnScratch, mask []bool) {
	s := ix.s
	dim := s.Dim
	cells := len(ix.cellStart) - 1

	sc.cells.reset(ix.nprobe)
	for c := 0; c < cells; c++ {
		sc.cells.push(c, float64(vecmath.Dot(q, ix.centroids[c*dim:])))
	}
	sc.probes = sc.cells.sortedInto(sc.probes)

	sc.top.reset(k)
	for _, p := range sc.probes {
		for _, row32 := range ix.members[ix.cellStart[p.Row]:ix.cellStart[p.Row+1]] {
			row := int(row32)
			if row == self || (mask != nil && !mask[row]) {
				continue
			}
			sc.top.push(row, float64(vecmath.Dot(q, s.rows[row*dim:])))
		}
	}
}

// Search is Space.Search through the index: the same contract, over the
// rows of the probed cells only. A query whose probed cells hold no marked
// row gets an empty list — callers needing completeness (the classifier)
// re-run those through the exact engine.
func (ix *IVF) Search(queries []int, k int, mask []bool, fn func(qi int, nn []Neighbor)) {
	ix.s.search(queries, k, ix.approxPerQuery(), fn, func(q, k int, sc *knnScratch) {
		ix.scan(ix.s.Row(q), q, k, sc, mask)
	})
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

// KNN is Space.KNN through the index.
func (ix *IVF) KNN(i, k int) []Neighbor { return collect(ix.Search, []int{i}, k, nil)[0] }

// KNNSubsetEach is Search with the marked rows given as a list.
func (ix *IVF) KNNSubsetEach(queries, candidates []int, k int, fn func(qi int, nn []Neighbor)) {
	mask := make([]bool, ix.s.Len())
	for _, r := range candidates {
		mask[r] = true
	}
	ix.Search(queries, k, mask, fn)
}

// KNNApprox answers through the attached index, or exactly when none is
// attached — mirroring KNN so callers can always ask for the approximate
// path and degrade to exact transparently. The probe count is calibrated at
// k = ivfCalibrateK, so a larger k can exceed what the probed cells hold: an
// answer shorter than min(k, Len()-1) is re-run exactly and counted in
// IVFStats.SimilarExactFallbacks.
func (s *Space) KNNApprox(i, k int) []Neighbor {
	q := []int{i}
	if s.ann != nil {
		if nn := collect(s.ann.Search, q, k, nil)[0]; len(nn) >= min(k, s.Len()-1) {
			return nn
		}
		s.ann.shortReruns.Add(1)
	}
	return collect(s.Search, q, k, nil)[0]
}

// MostSimilarApprox is MostSimilar through KNNApprox.
func (s *Space) MostSimilarApprox(word string, k int) ([]Similar, bool) {
	i, ok := s.index[word]
	if !ok {
		return nil, false
	}
	return s.resolve(s.KNNApprox(i, k)), true
}
