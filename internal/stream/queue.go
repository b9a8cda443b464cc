package stream

import (
	"sync"

	"github.com/darkvec/darkvec/internal/trace"
)

// DropPolicy selects what a full queue sheds.
type DropPolicy int

const (
	// ShedNewest rejects the incoming event when the queue is full — the
	// window keeps its oldest buffered context, overload costs the newest
	// arrivals. The safe default: an attacker flooding the feed cannot
	// wash the existing window out of the queue.
	ShedNewest DropPolicy = iota
	// DropOldest evicts the oldest queued event to admit the incoming one
	// — the window tracks the freshest traffic, overload costs history.
	DropOldest
)

// String names the policy as the -ingestpolicy flag spells it.
func (p DropPolicy) String() string {
	if p == DropOldest {
		return "drop-oldest"
	}
	return "shed-newest"
}

// queue is a fixed-capacity MPSC event queue: sources push under the
// configured drop policy, the single consumer pops (blocking) and applies
// events to the window. Bounding this hand-off is what turns a burst
// overload into accounted drops instead of unbounded memory growth.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []trace.Event
	head   int
	n      int
	policy DropPolicy
	closed bool
}

func newQueue(capacity int, policy DropPolicy) *queue {
	q := &queue{buf: make([]trace.Event, capacity), policy: policy}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues e. shed reports the incoming event was rejected
// (ShedNewest on a full queue, or the queue is closed); evicted reports an
// older queued event was discarded to make room (DropOldest).
func (q *queue) push(e trace.Event) (shed, evicted bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return true, false
	}
	if q.n == len(q.buf) {
		if q.policy == ShedNewest {
			return true, false
		}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		evicted = true
	}
	q.buf[(q.head+q.n)%len(q.buf)] = e
	q.n++
	q.cond.Signal()
	return false, evicted
}

// popBatch blocks like pop until at least one event is available, then
// drains up to max events into dst (reused, returned re-sliced) without
// blocking again. The consumer uses it to amortise the durability cost —
// one WAL commit (one fsync under the always policy) covers the whole
// batch. ok == false means closed and drained.
func (q *queue) popBatch(dst []trace.Event, max int) (batch []trace.Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return dst, false
	}
	for q.n > 0 && len(dst) < max {
		dst = append(dst, q.buf[q.head])
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
	return dst, true
}

// close stops admission; buffered events remain poppable (the drain).
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
