// Package cluster provides the unsupervised analysis toolbox of DarkVec §7:
// silhouette scoring with cosine distance, the classic clustering baselines
// the paper dismisses (k-means, DBSCAN, hierarchical agglomerative), and
// cluster inspection utilities (port signatures, Jaccard overlap, temporal
// occupancy, subnet concentration) used to build Table 5.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/vecmath"
)

// ErrBadInput flags silhouette inputs the metric cannot score: mismatched
// assignment length, out-of-range class ids, or non-finite vector data.
// Drift scoring feeds silhouettes straight into publish-gate arithmetic, so
// these are hard errors rather than silently propagated NaNs.
var ErrBadInput = errors.New("cluster: invalid silhouette input")

// Silhouette computes the per-point silhouette coefficient of assignment
// over the space, using cosine distance (1 - cosine similarity). Points in
// singleton clusters score 0, the scikit-learn convention.
//
// Because rows are unit-normalised, the mean cosine distance from a point to
// a cluster reduces to 1 - q·centroidSum/|C|, making the exact computation
// O(n·k·V) instead of O(n²·V).
//
// The input is validated: the assignment must cover every row with a class
// id in [0, n), and the embedding rows must be finite. Violations return an
// error wrapping ErrBadInput instead of panicking or emitting NaN scores.
func Silhouette(s *embed.Space, assign []int) ([]float64, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil space", ErrBadInput)
	}
	n := s.Len()
	if len(assign) != n {
		return nil, fmt.Errorf("%w: %d assignments for %d rows", ErrBadInput, len(assign), n)
	}
	if n == 0 {
		return nil, nil
	}
	k := 0
	for i, c := range assign {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("%w: class id %d at row %d out of range [0, %d)", ErrBadInput, c, i, n)
		}
		if c >= k {
			k = c + 1
		}
	}
	dim := s.Dim
	sums := make([]float64, k*dim)
	sizes := make([]int, k)
	for i := 0; i < n; i++ {
		c := assign[i]
		row := s.Row(i)
		for d := 0; d < dim; d++ {
			sums[c*dim+d] += float64(row[d])
		}
		sizes[c]++
	}
	// A NaN or ±Inf row poisons its class sum, so one O(k·V) pass over the
	// accumulated centroids catches any non-finite input without a separate
	// O(n·V) row scan.
	for _, v := range sums {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite embedding data", ErrBadInput)
		}
	}
	out := make([]float64, n)
	// Per-point scores are independent, so the row loop fans out across the
	// space's Parallelism() workers; each element is written exactly once,
	// and the result is identical for any worker count.
	s.ParallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			own := assign[i]
			if sizes[own] <= 1 {
				out[i] = 0
				continue
			}
			row := s.Row(i)
			var a, b float64
			b = math.Inf(1)
			for c := 0; c < k; c++ {
				if sizes[c] == 0 {
					continue
				}
				dot := vecmath.Dot64(row, sums[c*dim:])
				if c == own {
					// Exclude the point itself from its own-cluster mean. A
					// cluster of near-identical points can make the reduced
					// mean distance fractionally negative through rounding,
					// which would push the coefficient outside [-1, 1]; a
					// mean cosine distance is never negative on unit rows,
					// so clamp.
					a = 1 - (dot-1)/float64(sizes[c]-1)
					if a < 0 {
						a = 0
					}
				} else {
					d := 1 - dot/float64(sizes[c])
					if d < 0 {
						d = 0
					}
					if d < b {
						b = d
					}
				}
			}
			if math.IsInf(b, 1) {
				// No other non-empty cluster: the inter-cluster distance is
				// undefined, so score 0 (the same convention as singleton
				// clusters) instead of propagating Inf/Inf = NaN.
				out[i] = 0
				continue
			}
			den := math.Max(a, b)
			if den > 0 {
				out[i] = (b - a) / den
			}
		}
	})
	return out, nil
}

// ClusterSilhouettes averages per-point silhouettes by cluster and returns
// them sorted by decreasing average (the paper's Figure 11 ranking).
type ClusterSilhouette struct {
	Cluster int
	Size    int
	Avg     float64
}

// RankBySilhouette computes the Figure 11 series.
func RankBySilhouette(s *embed.Space, assign []int) ([]ClusterSilhouette, error) {
	sil, err := Silhouette(s, assign)
	if err != nil {
		return nil, err
	}
	sums := map[int]float64{}
	sizes := map[int]int{}
	for i, c := range assign {
		sums[c] += sil[i]
		sizes[c]++
	}
	out := make([]ClusterSilhouette, 0, len(sums))
	for c, sum := range sums {
		out = append(out, ClusterSilhouette{Cluster: c, Size: sizes[c], Avg: sum / float64(sizes[c])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Avg != out[j].Avg {
			return out[i].Avg > out[j].Avg
		}
		return out[i].Cluster < out[j].Cluster
	})
	return out, nil
}
