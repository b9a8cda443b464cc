//go:build !unix || race || asan || msan

package stream

import (
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/trace"
)

// ringOffHeap reports whether window rings live outside the Go heap. Here
// they are ordinary slices: the race detector and the sanitizers watch only
// Go's own memory, so these builds check every ring access.
const ringOffHeap = false

// mappedBytes stays zero: nothing is mapped.
var mappedBytes atomic.Int64

// ring is the heap build's empty owner: the collector frees the slice.
type ring struct{}

func newRing(slots int) (*ring, []trace.Event) {
	return nil, make([]trace.Event, slots)
}

func (*ring) free() {}
