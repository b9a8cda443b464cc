//go:build !race

package knn

import (
	"runtime"
	"testing"

	"github.com/darkvec/darkvec/internal/embed"
)

// Allocation pins. Not built under the race detector, where sync.Pool drops
// a quarter of its Puts at random and a pooled scratch is re-allocated on
// queries that did nothing to deserve it.

// bytesPerRun is testing.AllocsPerRun for heap bytes: an allocation count
// cannot see a table that is rebuilt per call, because a bigger space makes
// the same few allocations bigger, not more numerous.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestClassifierOneAllocsIndependentOfN pins the point of the type: a query
// allocates the same number of objects, and the same bytes, over 512 rows
// as over 8,192, on either engine and with or without unlabeled rows. The
// per-call adapter fails the bytes half by construction — its table grows
// with the space — and the test shows it does, so the pin cannot rot into
// one that passes on anything.
func TestClassifierOneAllocsIndependentOfN(t *testing.T) {
	type cost struct {
		allocs          float64
		bytes, adapterB uint64
	}
	measure := func(n int, indexed, partial bool) cost {
		s, labels := bigClusteredSpace(t, n, 13)
		if !partial {
			for _, w := range s.Words {
				if labels[w] == "" {
					labels[w] = "unknown"
				}
			}
		}
		var ix *embed.IVF
		if indexed {
			var err error
			if ix, err = s.BuildIVF(embed.IVFOptions{Seed: 1, NProbe: 3}); err != nil {
				t.Fatal(err)
			}
		}
		c := NewClassifier(s, ix, labels)
		w := s.Words[n/2]
		return cost{
			allocs:   testing.AllocsPerRun(200, func() { c.One(w, 7) }),
			bytes:    bytesPerRun(200, func() { c.One(w, 7) }),
			adapterB: bytesPerRun(20, func() { ClassifyOneIndexed(s, ix, labels, w, 7) }),
		}
	}
	for _, indexed := range []bool{false, true} {
		for _, partial := range []bool{false, true} {
			small, large := measure(512, indexed, partial), measure(8192, indexed, partial)
			if small.allocs != large.allocs {
				t.Errorf("indexed=%v partial=%v: %v allocs/query at N=512, %v at N=8192", indexed, partial, small.allocs, large.allocs)
			}
			// A GC between runs empties the scratch pools and the refill is
			// charged to the query; a quarter is far above that and far
			// below the 16x a per-call table costs.
			if large.bytes > small.bytes+small.bytes/4 {
				t.Errorf("indexed=%v partial=%v: %d B/query at N=512, %d at N=8192", indexed, partial, small.bytes, large.bytes)
			}
			if large.adapterB < 8*small.adapterB {
				t.Errorf("indexed=%v partial=%v: the per-call adapter costs %d B at N=512 and %d at N=8192 — the bytes pin no longer tells the two designs apart",
					indexed, partial, small.adapterB, large.adapterB)
			}
		}
	}
}
