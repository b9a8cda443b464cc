package embed

import (
	"math"
	"sync"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/vecmath"
)

// Spherical k-means lives in this package (rather than internal/cluster,
// which re-exports it) because it is the coarse-quantizer trainer of the IVF
// index: embed cannot import cluster without a cycle, and the index build
// and the clustering baseline must stay byte-identical — one implementation,
// two consumers.

// SphericalKMeans runs spherical k-means (cosine similarity on unit rows)
// with k-means++ seeding and returns the per-row assignment, the flat k×Dim
// unit-normalised centroid matrix, and the number of iterations executed.
// Output is identical for any Parallelism() (the assignment step fans out
// row-parallel; centroid accumulation stays serial to fix the summation
// order).
func (s *Space) SphericalKMeans(k, maxIter int, seed uint64) ([]int, []float64, int) {
	n, dim := s.Len(), s.Dim
	if k <= 0 || n == 0 {
		return make([]int, n), nil, 0
	}
	if k > n {
		k = n
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	rng := netutil.NewRand(seed | 1)

	// k-means++ seeding with cosine distance.
	centroids := make([]float64, k*dim)
	copyRow := func(ci, row int) {
		r := s.Row(row)
		for d := 0; d < dim; d++ {
			centroids[ci*dim+d] = float64(r[d])
		}
	}
	copyRow(0, rng.Intn(n))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for c := 1; c < k; c++ {
		var total float64
		for i := 0; i < n; i++ {
			d := 1 - vecmath.Dot64(s.Row(i), centroids[(c-1)*dim:c*dim])
			if d < 0 {
				d = 0
			}
			if d < minDist[i] {
				minDist[i] = d
			}
			total += minDist[i]
		}
		pick := rng.Float64() * total
		chosen := n - 1
		var acc float64
		for i := 0; i < n; i++ {
			acc += minDist[i]
			if acc >= pick {
				chosen = i
				break
			}
		}
		copyRow(c, chosen)
	}

	assign := make([]int, n)
	changes := make([]int, n) // per-row change flag, summed after the fan-out
	iter := 0
	for ; iter < maxIter; iter++ {
		// The assignment step is the O(n·k·V) bulk of an iteration and each
		// row is independent, so it fans out across Parallelism() workers;
		// assignments (and therefore iterations) are identical for any
		// worker count. Centroid recomputation stays serial to keep the
		// floating-point accumulation order fixed.
		s.ParallelRows(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				best, bestSim := 0, math.Inf(-1)
				for c := 0; c < k; c++ {
					sim := vecmath.Dot64(s.Row(i), centroids[c*dim:(c+1)*dim])
					if sim > bestSim {
						best, bestSim = c, sim
					}
				}
				changes[i] = 0
				if assign[i] != best {
					assign[i] = best
					changes[i] = 1
				}
			}
		})
		changed := 0
		for _, c := range changes {
			changed += c
		}
		if changed == 0 && iter > 0 {
			break
		}
		// Recompute centroids as normalised means.
		for i := range centroids {
			centroids[i] = 0
		}
		counts := make([]int, k)
		for i := 0; i < n; i++ {
			c := assign[i]
			row := s.Row(i)
			for d := 0; d < dim; d++ {
				centroids[c*dim+d] += float64(row[d])
			}
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				copyRow(c, rng.Intn(n)) // re-seed empty cluster
				continue
			}
			var ss float64
			for d := 0; d < dim; d++ {
				v := centroids[c*dim+d]
				ss += v * v
			}
			if ss > 0 {
				inv := 1 / math.Sqrt(ss)
				for d := 0; d < dim; d++ {
					centroids[c*dim+d] *= inv
				}
			}
		}
	}
	return assign, centroids, iter
}

// ParallelRows splits [0, n) into contiguous chunks, one per Parallelism()
// worker, and runs fn on each concurrently; one worker (or tiny n) runs
// inline. The row-parallel consumers whose per-row work is uniform (k-means
// assignment here, cluster.Silhouette) share it.
func (s *Space) ParallelRows(n int, fn func(lo, hi int)) {
	workers := s.Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
