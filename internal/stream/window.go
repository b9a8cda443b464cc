package stream

import (
	"maps"
	"math"
	"sync"
	"unsafe"

	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// WindowConfig bounds a rolling window. The event cap is hard: the window
// never holds more than MaxEvents events, so memory stays bounded no matter
// how fast or how long the feed runs. The age bound evicts from the head
// only: an event falls out once it is the oldest-arrived one and more than
// MaxAge older than the newest. A late arrival — older than events already
// buffered — waits behind them, so the buffered events can span more than
// MaxAge until the head reaches it.
type WindowConfig struct {
	// MaxEvents caps the buffered events (default 1<<20, at most
	// math.MaxInt32: a sender's packet count is an int32). The cap also
	// bounds sender-cardinality bookkeeping: the per-sender count map can
	// never exceed the number of buffered events.
	MaxEvents int
	// MaxAge is the event-time horizon in seconds-resolution duration
	// (default 24h; negative = unbounded). Age is judged against the
	// newest event seen, not the wall clock, so accelerated replays and
	// historical backfills roll the window exactly like live traffic.
	MaxAge int64
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 20
	}
	c.MaxEvents = min(c.MaxEvents, math.MaxInt32)
	if c.MaxAge == 0 {
		c.MaxAge = 24 * 3600
	}
	return c
}

// WindowStats is the /v1/ingest view of a window.
type WindowStats struct {
	Events  int `json:"events"`
	Senders int `json:"senders"`
	// FirstTs is the Ts of the oldest-arrived buffered event, the next one
	// eviction takes; a late arrival behind it may be older. LastTs is the
	// newest Ts ever added.
	FirstTs    int64 `json:"first_ts"`
	LastTs     int64 `json:"last_ts"`
	EvictedAge int64 `json:"evicted_age"`
	EvictedCap int64 `json:"evicted_cap"`
	// RingBytes is the ring's size: its slots × 24 B. The ring lies outside
	// the Go heap on unix builds, so runtime.MemStats and heap profiles do
	// not count it; its pages become resident as the window fills them.
	RingBytes int64 `json:"ring_bytes"`
}

// eventBytes is the ring's cost per slot.
const eventBytes = int64(unsafe.Sizeof(trace.Event{}))

// Window is a rolling, bounded, in-memory event store: the live-feed
// equivalent of the paper's 1–30 day training window. Events are kept in
// arrival order in a ring buffer; when the cap or the age horizon is hit,
// the oldest-arrived events are evicted and their senders' packet counts
// decremented. All methods are safe for concurrent use.
type Window struct {
	mu  sync.Mutex
	cfg WindowConfig
	// buf is the ring's events; len(buf) is the current capacity. Its
	// memory belongs to ring, which reserveLocked unmaps when it regrows and
	// a finalizer unmaps when the window is dropped. That is safe because
	// buf is read and written only under mu, whose Unlock keeps the window
	// and its ring reachable, and no slice of it outlives the lock: Cut,
	// Snapshot and SnapshotActive copy events out; Stats and reserveLocked
	// read them in place.
	buf    []trace.Event
	ring   *ring
	head   int
	n      int
	counts map[netutil.IPv4]int32 // MaxEvents ≤ math.MaxInt32 bounds each
	newest int64                  // max event Ts ever added

	evictedAge int64
	evictedCap int64

	internOnce sync.Once
	intern     *corpus.Interner
}

// NewWindow builds a window; the ring starts small and grows geometrically
// up to MaxEvents, so an idle daemon does not pre-pay the cap.
func NewWindow(cfg WindowConfig) *Window {
	return &Window{cfg: cfg.withDefaults(), counts: make(map[netutil.IPv4]int32)}
}

// Add admits one event, evicting from the old end as needed to hold the
// cap and age bounds.
func (w *Window) Add(e trace.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.addLocked(e)
}

// AddBatch admits a batch under one lock acquisition: the boot-time seed
// that pre-fills the window, and every batch the consumer pops. The ring is
// reserved for the whole batch first, so a seed costs one ring rather than
// every doubling on the way to it.
func (w *Window) AddBatch(events []trace.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.reserveLocked(w.retainedLocked(events))
	for _, e := range events {
		w.addLocked(e)
	}
}

func (w *Window) addLocked(e trace.Event) {
	if w.n == len(w.buf) {
		if len(w.buf) < w.cfg.MaxEvents {
			w.reserveLocked(1)
		} else {
			w.evictLocked()
			w.evictedCap++
		}
	}
	w.buf[(w.head+w.n)%len(w.buf)] = e
	w.n++
	w.counts[e.Src]++
	if e.Ts > w.newest {
		w.newest = e.Ts
	}
	if w.cfg.MaxAge > 0 {
		for w.n > 0 && w.newest-w.buf[w.head].Ts > w.cfg.MaxAge {
			w.evictLocked()
			w.evictedAge++
		}
	}
}

// retainedLocked counts the events of a batch the age horizon will still
// hold once the whole batch is in, so a month-long seed into a one-day
// window reserves a day of ring, not a month.
func (w *Window) retainedLocked(events []trace.Event) int {
	if w.cfg.MaxAge <= 0 {
		return len(events)
	}
	newest := w.newest
	for _, e := range events {
		if e.Ts > newest {
			newest = e.Ts
		}
	}
	n := 0
	for _, e := range events {
		if newest-e.Ts <= w.cfg.MaxAge {
			n++
		}
	}
	return n
}

// reserveLocked makes room for extra more events with at most one ring
// allocation. Capacities stay on the doubling ladder (1024·2^k, capped at
// MaxEvents) whatever the batch sizes: a ring sized exactly to each batch
// would be re-copied whole on every batch that follows. The new ring is
// filled before the old one is freed.
func (w *Window) reserveLocked(extra int) {
	need := min(w.n+extra, w.cfg.MaxEvents)
	if need <= len(w.buf) {
		return
	}
	newCap := max(len(w.buf), 1024)
	for newCap < need {
		newCap *= 2
	}
	r, nb := newRing(min(newCap, w.cfg.MaxEvents))
	runs := w.runsLocked()
	copy(nb[copy(nb, runs[0]):], runs[1])
	w.ring.free()
	w.ring, w.buf, w.head = r, nb, 0
}

func (w *Window) evictLocked() {
	e := w.buf[w.head]
	w.head = (w.head + 1) % len(w.buf)
	w.n--
	if c := w.counts[e.Src] - 1; c > 0 {
		w.counts[e.Src] = c
	} else {
		delete(w.counts, e.Src)
	}
}

func (w *Window) ageHorizonLocked() int64 {
	if w.n == 0 || w.cfg.MaxAge <= 0 {
		return 0
	}
	return w.newest - w.cfg.MaxAge
}

// CompactionHorizon is the WAL's compaction bound: AgeHorizon, lowered to
// the oldest buffered Ts when a late arrival below the horizon still waits
// behind the head. No buffered event is older, so a log segment whose
// newest event is below it holds nothing the window holds. One linear scan
// of the buffer, run once per WAL rotation. 0 when AgeHorizon is.
func (w *Window) CompactionHorizon() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.ageHorizonLocked()
	if h == 0 {
		return 0
	}
	for _, run := range w.runsLocked() {
		for i := range run {
			h = min(h, run[i].Ts)
		}
	}
	return h
}

// Len returns the number of buffered events.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Senders returns the number of distinct senders currently buffered.
func (w *Window) Senders() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.counts)
}

// ActiveSenders counts buffered senders with at least minPackets events —
// the paper's "active sender" admission over the live window.
func (w *Window) ActiveSenders(minPackets int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, c := range w.counts {
		if int(c) >= minPackets {
			n++
		}
	}
	return n
}

// Interner returns the window's persistent sender id space, created on
// first use. Passing it to every retrain's corpus build keeps sender →
// token-id assignments stable across snapshots, so a recurring scanner is
// interned once for the lifetime of the window rather than once per
// retrain cycle. Retrain cycles run sequentially, which is exactly the
// sharing discipline corpus.Interner requires.
func (w *Window) Interner() *corpus.Interner {
	w.internOnce.Do(func() { w.intern = corpus.NewInterner() })
	return w.intern
}

// Snapshot copies the window into a time-sorted Trace — the input of a
// retrain cycle. The copy means training can run for minutes while the
// window keeps rolling underneath it.
func (w *Window) Snapshot() *trace.Trace {
	w.mu.Lock()
	events := make([]trace.Event, 0, w.n)
	for _, run := range w.runsLocked() {
		events = append(events, run...)
	}
	w.mu.Unlock()
	return trace.New(events)
}

// SnapshotActive is Snapshot restricted to senders meeting the ≥minPackets
// admission filter, so a retrain never materialises the one-shot
// backscatter tail at all.
func (w *Window) SnapshotActive(minPackets int) *trace.Trace {
	w.mu.Lock()
	events := make([]trace.Event, 0, w.n)
	for _, run := range w.runsLocked() {
		for _, e := range run {
			if int(w.counts[e.Src]) >= minPackets {
				events = append(events, e)
			}
		}
	}
	w.mu.Unlock()
	return trace.New(events)
}

// Cut takes a generation's input from the ring under one lock acquisition:
// trace.CutEvents over the ring's two runs where they lie and a copy of the
// per-sender counts. Nothing else of the window is copied, and the
// trainable events are put in Ts order once the lock is released.
func (w *Window) Cut(minPackets int) trace.Cut {
	w.mu.Lock()
	runs := w.runsLocked()
	c := trace.CutEvents(maps.Clone(w.counts), minPackets, runs[0], runs[1])
	w.mu.Unlock()
	c.Trainable.Sort()
	return c
}

// runsLocked returns the buffered events in arrival order as the ring's two
// contiguous runs (the second empty unless the ring wraps).
func (w *Window) runsLocked() [2][]trace.Event {
	end := w.head + w.n
	if end <= len(w.buf) {
		return [2][]trace.Event{w.buf[w.head:end], nil}
	}
	return [2][]trace.Event{w.buf[w.head:], w.buf[:end-len(w.buf)]}
}

// Stats returns a point-in-time summary.
func (w *Window) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := WindowStats{
		Events:     w.n,
		Senders:    len(w.counts),
		EvictedAge: w.evictedAge,
		EvictedCap: w.evictedCap,
		RingBytes:  int64(len(w.buf)) * eventBytes,
	}
	if w.n > 0 {
		s.FirstTs = w.buf[w.head].Ts
		s.LastTs = w.newest
	}
	return s
}
