//go:build unix && !race && !asan && !msan

package stream

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"

	"github.com/darkvec/darkvec/internal/trace"
)

// ringOffHeap reports whether window rings live outside the Go heap.
const ringOffHeap = true

// mappedBytes is the size of every ring mapping not yet unmapped.
var mappedBytes atomic.Int64

// ring owns the anonymous private mapping that holds a window's events.
// The collector neither counts nor scans that memory: the ring is live for
// the life of the process, so on the heap it would raise every cycle's heap
// goal by its own size and cost twice its bytes of peak RSS. Its one pointer
// is to the mapping, so the ring holds nothing on the heap and never sits in
// a cycle that would keep its finalizer from running. A window that regrows
// frees the old ring at once; the finalizer unmaps the ring of a window that
// was dropped.
type ring struct {
	mem []byte
}

// newRing maps a ring of slots events and returns it with its events.
// Pages are zero and become resident as the window writes them.
func newRing(slots int) (*ring, []trace.Event) {
	size := slots * int(eventBytes)
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("stream: mapping a %d-event window ring: %v", slots, err))
	}
	mappedBytes.Add(int64(size))
	r := &ring{mem: mem}
	runtime.SetFinalizer(r, (*ring).free)
	return r, unsafe.Slice((*trace.Event)(unsafe.Pointer(&mem[0])), slots)
}

// free unmaps the ring; a nil or freed ring is left alone.
func (r *ring) free() {
	if r == nil || r.mem == nil {
		return
	}
	runtime.SetFinalizer(r, nil)
	if err := syscall.Munmap(r.mem); err != nil {
		panic(fmt.Sprintf("stream: unmapping a window ring: %v", err))
	}
	mappedBytes.Add(-int64(len(r.mem)))
	r.mem = nil
}
