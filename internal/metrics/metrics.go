// Package metrics collects the evaluation machinery shared across
// experiments: classification reports (accuracy, per-class precision /
// recall / F-score), empirical CDFs, Jaccard indices and the elbow heuristic
// used to choose k′ in the clustering stage.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// ClassStat is one row of a classification report (paper Tables 4 and 6).
type ClassStat struct {
	Label     string
	Precision float64
	Recall    float64
	FScore    float64
	Support   int
}

// Report is a full multi-class classification report.
type Report struct {
	Classes  []ClassStat
	Accuracy float64 // micro accuracy over the classes included in it
	Total    int
}

// BuildReport computes a report from parallel slices of true and predicted
// labels. Classes listed in skipMetrics still influence the predictions they
// absorb, and get a recall (how many of them stayed put) but no precision or
// F-score and no contribution to the overall accuracy — the treatment the
// paper applies to the "Unknown" class.
func BuildReport(truth, pred []string, skipMetrics map[string]bool) Report {
	if len(truth) != len(pred) {
		panic("metrics: truth/pred length mismatch")
	}
	type counts struct {
		tp, fp, fn int
		support    int
	}
	byClass := map[string]*counts{}
	get := func(label string) *counts {
		c := byClass[label]
		if c == nil {
			c = &counts{}
			byClass[label] = c
		}
		return c
	}
	correct, scored := 0, 0
	for i := range truth {
		tc, pc := get(truth[i]), get(pred[i])
		tc.support++
		if truth[i] == pred[i] {
			tc.tp++
		} else {
			tc.fn++
			pc.fp++
		}
		if !skipMetrics[truth[i]] {
			scored++
			if truth[i] == pred[i] {
				correct++
			}
		}
	}
	labels := make([]string, 0, len(byClass))
	for l := range byClass {
		labels = append(labels, l)
	}
	// Deterministic order: decreasing support, then name.
	sort.Slice(labels, func(i, j int) bool {
		si, sj := byClass[labels[i]].support, byClass[labels[j]].support
		if si != sj {
			return si > sj
		}
		return labels[i] < labels[j]
	})
	r := Report{Total: len(truth)}
	if scored > 0 {
		r.Accuracy = float64(correct) / float64(scored)
	}
	for _, l := range labels {
		c := byClass[l]
		if c.support == 0 {
			continue
		}
		st := ClassStat{Label: l, Support: c.support}
		st.Recall = float64(c.tp) / float64(c.support)
		if skipMetrics[l] {
			st.Precision = math.NaN()
			st.FScore = math.NaN()
		} else {
			if c.tp+c.fp > 0 {
				st.Precision = float64(c.tp) / float64(c.tp+c.fp)
			}
			if st.Precision+st.Recall > 0 {
				st.FScore = 2 * st.Precision * st.Recall / (st.Precision + st.Recall)
			}
		}
		r.Classes = append(r.Classes, st)
	}
	return r
}

// Class returns the row for label, or a zero row.
func (r Report) Class(label string) ClassStat {
	for _, c := range r.Classes {
		if c.Label == label {
			return c
		}
	}
	return ClassStat{Label: label}
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	out := fmt.Sprintf("%-18s %9s %9s %9s %9s\n", "class", "precision", "recall", "f-score", "support")
	for _, c := range r.Classes {
		p, f := fmtMaybe(c.Precision), fmtMaybe(c.FScore)
		out += fmt.Sprintf("%-18s %9s %9.2f %9s %9d\n", c.Label, p, c.Recall, f, c.Support)
	}
	out += fmt.Sprintf("accuracy (GT classes): %.4f over %d samples\n", r.Accuracy, r.Total)
	return out
}

func fmtMaybe(v float64) string {
	if math.IsNaN(v) {
		return "–"
	}
	return fmt.Sprintf("%.2f", v)
}

// ECDF is an empirical cumulative distribution function over float64
// samples.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples (copied, then sorted).
func NewECDF(samples []float64) ECDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return ECDF{sorted: s}
}

// Quantile returns the q-th quantile, q in [0,1].
func (e ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(q * float64(len(e.sorted)))
	if i >= len(e.sorted) {
		i = len(e.sorted) - 1
	}
	return e.sorted[i]
}

// Elbow returns the index of the "elbow" of a decreasing curve ys: the point
// with the maximum distance to the straight line joining the first and last
// points — the standard geometric elbow heuristic the paper cites for
// choosing k′.
func Elbow(ys []float64) int {
	n := len(ys)
	if n < 3 {
		return 0
	}
	x1, y1 := 0.0, ys[0]
	x2, y2 := float64(n-1), ys[n-1]
	dx, dy := x2-x1, y2-y1
	norm := math.Hypot(dx, dy)
	best, bestDist := 0, -1.0
	for i := 1; i < n-1; i++ {
		// Perpendicular distance from (i, ys[i]) to the chord.
		d := math.Abs(dy*float64(i)-dx*ys[i]+x2*y1-y2*x1) / norm
		if d > bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// AdjustedRandIndex measures agreement between two clusterings of the same
// items, corrected for chance: 1 for identical partitions, ~0 for random
// ones, negative for adversarial ones. The unsupervised experiments use it
// to score detected clusters against the planted coordinated groups.
func AdjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) {
		panic("metrics: clustering length mismatch")
	}
	n := len(a)
	if n == 0 {
		return 1
	}
	type pair struct{ x, y int }
	joint := map[pair]int{}
	rowSum := map[int]int{}
	colSum := map[int]int{}
	for i := 0; i < n; i++ {
		joint[pair{a[i], b[i]}]++
		rowSum[a[i]]++
		colSum[b[i]]++
	}
	choose2 := func(m int) float64 { return float64(m) * float64(m-1) / 2 }
	var sumJoint, sumRow, sumCol float64
	for _, v := range joint {
		sumJoint += choose2(v)
	}
	for _, v := range rowSum {
		sumRow += choose2(v)
	}
	for _, v := range colSum {
		sumCol += choose2(v)
	}
	total := choose2(n)
	if total == 0 {
		return 1
	}
	expected := sumRow * sumCol / total
	max := (sumRow + sumCol) / 2
	if max == expected {
		return 1 // both partitions are trivial in the same way
	}
	return (sumJoint - expected) / (max - expected)
}
