package metrics

import "sort"

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// Points returns up to n evenly spaced (x, F(x)) pairs for plotting.
func (e ECDF) Points(n int) (xs, ys []float64) {
	if len(e.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	for i := 0; i < n; i++ {
		idx := i * (len(e.sorted) - 1) / max(1, n-1)
		xs = append(xs, e.sorted[idx])
		ys = append(ys, float64(idx+1)/float64(len(e.sorted)))
	}
	return xs, ys
}

// Jaccard returns |a∩b| / |a∪b| for two sets; two empty sets score 1.
func Jaccard[K comparable](a, b map[K]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// At returns P(X <= x).
func (e ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Len returns the sample count.
func (e ECDF) Len() int { return len(e.sorted) }
