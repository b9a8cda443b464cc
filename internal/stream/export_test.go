package stream

import "github.com/darkvec/darkvec/internal/trace"

// mappedRingBytes is the size of every window ring mapped and not yet
// unmapped: zero on builds whose rings live on the Go heap.
func mappedRingBytes() int64 { return mappedBytes.Load() }

// AgeHorizon returns the event-time horizon (Unix seconds) newest − MaxAge:
// the age bound evicts an event older than it as soon as that event is the
// head. A late arrival older than the horizon waits behind younger events
// until then (WindowConfig). Returns 0 — "no horizon yet" — while the
// window is empty or when the age bound is disabled.
func (w *Window) AgeHorizon() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ageHorizonLocked()
}

// pop blocks until an event is available or the queue is closed and
// drained; ok == false means no more events will ever arrive.
func (q *queue) pop() (e trace.Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return trace.Event{}, false
	}
	e = q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return e, true
}
