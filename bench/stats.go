package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

// supportedPercentile reports whether a sample of n values can carry the
// p-th percentile under the "ten samples beyond" rule: a percentile is only
// reported when at least ten observations lie above it.
func supportedPercentile(n int, p float64) bool {
	return float64(n)*(100-p) >= 1000-1e-9
}

// highestPercentile returns the highest of the conventional tail
// percentiles that a sample of n values supports, or 50 when none does.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if supportedPercentile(n, p) {
			best = p
		}
	}
	return best
}

// quartiles returns Q1, the median and Q3 exactly as Python's
// statistics.quantiles(v, n=4) (the "exclusive" method) computes them, so
// the spreads printed here match the ones the acceptance driver derives.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based ranks; CPython clamps the rank
		// first and derives the interpolation weight from the clamped rank.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 || math.IsNaN(q2) {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}
