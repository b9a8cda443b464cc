//go:build !race

package darksim

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/darkvec/darkvec/internal/trace"
)

// TestGenerateAllocatesNoGrowth: emission appends into fixed chunks and the
// address set is presized, so Generate allocates the events about twice
// (the chunks, then the ordered slice) plus the per-second histogram and
// the populations — not the discarded backing arrays of a doubling slice.
// Not built under the race detector, which instruments allocations of its
// own.
func TestGenerateAllocatesNoGrowth(t *testing.T) {
	cfg := Config{Seed: 1, Days: 2, Scale: 0.1, Rate: 0.1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := Generate(cfg)
	runtime.ReadMemStats(&after)
	events := out.Trace.Len()
	total := after.TotalAlloc - before.TotalAlloc
	limit := 3 * uint64(unsafe.Sizeof(trace.Event{})) * uint64(events)
	t.Logf("%d events, %d bytes allocated (%.2f× the event bytes)", events, total, float64(total)/float64(limit/3))
	if total > limit {
		t.Errorf("Generate allocated %d bytes for %d events, want ≤ %d (3 × 24 B per event)", total, events, limit)
	}
}
