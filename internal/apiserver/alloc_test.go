//go:build !race

package apiserver

import (
	"net/http"
	"runtime"
	"testing"

	"github.com/darkvec/darkvec/internal/embed"
)

// Not built under the race detector, where sync.Pool drops a quarter of its
// Puts at random and pooled scratch is re-allocated on requests that did
// nothing to deserve it.

// TestClassifyCostIndependentOfN drives GET /v1/classify through the whole
// handler chain on a recorder: the request must allocate the same number of
// objects, and the same bytes, over 512 senders as over 8,192. A handler
// that resolves the label table per request passes the first half and fails
// the second sixteen-fold.
func TestClassifyCostIndependentOfN(t *testing.T) {
	sizes := []int{512, 8192}
	if testing.Short() {
		sizes = []int{256, 2048}
	}
	measure := func(n int, indexed bool) (allocs float64, bytes uint64) {
		space := syntheticSpace(t, n)
		if indexed {
			if _, err := space.BuildIVF(embed.IVFOptions{Seed: 1, NProbe: 3}); err != nil {
				t.Fatal(err)
			}
		}
		srv := syntheticServer(space, nil, "g1")
		target := "/v1/classify?ip=" + ipWord(n/2) + "&k=7"
		do := func() {
			if rec := serve(srv, target); rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d %s", target, rec.Code, rec.Body)
			}
		}
		allocs = testing.AllocsPerRun(100, do)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			do()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 100
	}
	for _, indexed := range []bool{false, true} {
		smallA, smallB := measure(sizes[0], indexed)
		largeA, largeB := measure(sizes[1], indexed)
		if smallA != largeA {
			t.Errorf("indexed=%v: %v allocs/request at N=%d, %v at N=%d", indexed, smallA, sizes[0], largeA, sizes[1])
		}
		// A GC mid-run empties the scratch pools and the refill is charged to
		// a request; a quarter is far above that and far below 16x.
		if largeB > smallB+smallB/4 {
			t.Errorf("indexed=%v: %d B/request at N=%d, %d at N=%d", indexed, smallB, sizes[0], largeB, sizes[1])
		}
	}
}
