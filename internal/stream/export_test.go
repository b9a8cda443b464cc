package stream

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
