package stream

import (
	"runtime"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

func ev(ts int64, src string) trace.Event {
	ip, err := netutil.ParseIPv4(src)
	if err != nil {
		panic(err)
	}
	dst, _ := netutil.ParseIPv4("10.0.0.1")
	return trace.Event{Ts: ts, Src: ip, Dst: dst, Port: 23, Proto: packet.IPProtocolTCP}
}

func TestWindowCapEviction(t *testing.T) {
	w := NewWindow(WindowConfig{MaxEvents: 4, MaxAge: -1})
	for i := 0; i < 10; i++ {
		w.Add(ev(int64(i), "1.2.3.4"))
	}
	if w.Len() != 4 {
		t.Fatalf("Len = %d, want 4", w.Len())
	}
	st := w.Stats()
	if st.EvictedCap != 6 {
		t.Errorf("EvictedCap = %d, want 6", st.EvictedCap)
	}
	if st.FirstTs != 6 || st.LastTs != 9 {
		t.Errorf("window span [%d,%d], want [6,9]", st.FirstTs, st.LastTs)
	}
}

func TestWindowAgeEviction(t *testing.T) {
	w := NewWindow(WindowConfig{MaxEvents: 100, MaxAge: 10})
	for i := 0; i < 5; i++ {
		w.Add(ev(int64(i), "1.2.3.4"))
	}
	// Jump event time far forward: everything older than newest-10 must go.
	w.Add(ev(100, "5.6.7.8"))
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after age eviction", w.Len())
	}
	st := w.Stats()
	if st.EvictedAge != 5 {
		t.Errorf("EvictedAge = %d, want 5", st.EvictedAge)
	}
	if w.Senders() != 1 {
		t.Errorf("Senders = %d, want 1 (evicted sender forgotten)", w.Senders())
	}
}

func TestWindowAgeUsesEventTimeNotWallClock(t *testing.T) {
	// An accelerated replay delivers hours of event time in milliseconds of
	// wall time; eviction must key on event timestamps.
	w := NewWindow(WindowConfig{MaxEvents: 1000, MaxAge: 3600})
	for i := 0; i < 100; i++ {
		w.Add(ev(int64(i)*120, "1.2.3.4")) // 2min apart: 100 events span 198min
	}
	if got := w.Len(); got != 31 { // newest=11880; keep Ts >= 8280: 8280/120..11880/120
		t.Errorf("Len = %d, want 31 (1h horizon at 2min spacing)", got)
	}
}

func TestWindowGrowsGeometrically(t *testing.T) {
	w := NewWindow(WindowConfig{MaxEvents: 1 << 20, MaxAge: -1})
	for i := 0; i < 5000; i++ {
		w.Add(ev(int64(i), "1.2.3.4"))
	}
	if w.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", w.Len())
	}
	if len(w.buf) >= 1<<20 {
		t.Errorf("ring pre-allocated to cap (%d); should grow on demand", len(w.buf))
	}
}

func TestWindowActiveSenders(t *testing.T) {
	w := NewWindow(WindowConfig{MaxEvents: 100, MaxAge: -1})
	for i := 0; i < 5; i++ {
		w.Add(ev(int64(i), "1.1.1.1"))
	}
	w.Add(ev(6, "2.2.2.2"))
	if got := w.ActiveSenders(5); got != 1 {
		t.Errorf("ActiveSenders(5) = %d, want 1", got)
	}
	if got := w.ActiveSenders(1); got != 2 {
		t.Errorf("ActiveSenders(1) = %d, want 2", got)
	}
	tr := w.SnapshotActive(5)
	if tr.Len() != 5 {
		t.Errorf("SnapshotActive(5).Len = %d, want 5", tr.Len())
	}
}

func TestWindowSnapshotSortedAndIndependent(t *testing.T) {
	w := NewWindow(WindowConfig{MaxEvents: 100, MaxAge: -1})
	w.Add(ev(5, "1.1.1.1"))
	w.Add(ev(1, "2.2.2.2"))
	w.Add(ev(3, "3.3.3.3"))
	tr := w.Snapshot()
	if tr.Len() != 3 {
		t.Fatalf("snapshot Len = %d, want 3", tr.Len())
	}
	evs := tr.Events
	if evs[0].Ts != 1 || evs[1].Ts != 3 || evs[2].Ts != 5 {
		t.Errorf("snapshot not time-sorted: %v %v %v", evs[0].Ts, evs[1].Ts, evs[2].Ts)
	}
	// Mutating the window must not disturb the snapshot.
	for i := 0; i < 200; i++ {
		w.Add(ev(int64(10+i), "9.9.9.9"))
	}
	if tr.Len() != 3 {
		t.Errorf("snapshot changed under window mutation")
	}
}

// ringAllocs feeds batches to a window one AddBatch at a time and counts
// how many times the ring was reallocated on the way.
func ringAllocs(w *Window, batches [][]trace.Event) int {
	allocs := 0
	var ring *trace.Event
	for _, b := range batches {
		w.AddBatch(b)
		if len(w.buf) > 0 && &w.buf[0] != ring {
			ring = &w.buf[0]
			allocs++
		}
	}
	return allocs
}

// seq builds n in-order events from one sender starting at ts.
func seq(ts int64, n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = ev(ts+int64(i), "1.2.3.4")
	}
	return events
}

// TestSeedReservesOnce: a boot-time seed is one ring allocation of the
// capacity doubling would have reached, not every doubling on the way; a
// seed at the event cap gets exactly the cap.
func TestSeedReservesOnce(t *testing.T) {
	seed := seq(0, 100000)
	w := NewWindow(WindowConfig{MaxEvents: 1 << 20, MaxAge: -1})
	if n := ringAllocs(w, [][]trace.Event{seed}); n != 1 {
		t.Errorf("seed of %d events allocated the ring %d times, want 1", len(seed), n)
	}
	if len(w.buf) != 1<<17 || w.Len() != len(seed) {
		t.Errorf("ring %d slots holding %d events, want %d and %d", len(w.buf), w.Len(), 1<<17, len(seed))
	}
	snap := w.Snapshot()
	for i, e := range snap.Events {
		if e != seed[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, e, seed[i])
		}
	}

	capped := NewWindow(WindowConfig{MaxEvents: 60000, MaxAge: -1})
	if n := ringAllocs(capped, [][]trace.Event{seed}); n != 1 || len(capped.buf) != 60000 {
		t.Errorf("capped seed: %d ring allocations, %d slots; want 1 and 60000", n, len(capped.buf))
	}
	if st := capped.Stats(); st.Events != 60000 || st.EvictedCap != 40000 || st.FirstTs != 40000 {
		t.Errorf("capped seed stats = %+v", st)
	}
}

// TestSeedReservesForTheAgeHorizonOnly: a seed far longer than the age
// horizon reserves what the horizon keeps, not the whole file.
func TestSeedReservesForTheAgeHorizonOnly(t *testing.T) {
	w := NewWindow(WindowConfig{MaxEvents: 1 << 20, MaxAge: 3000})
	if n := ringAllocs(w, [][]trace.Event{seq(0, 100000)}); n != 1 {
		t.Errorf("ring allocated %d times, want 1", n)
	}
	if w.Len() != 3001 || len(w.buf) != 4096 {
		t.Errorf("window holds %d events in a %d-slot ring, want 3001 in 4096", w.Len(), len(w.buf))
	}
}

// TestAddBatchReallocatesLogTimes: the consumer's small batches walk the
// same doubling ladder as single adds — O(log n) rings for n events — and a
// full ring is never reallocated again. (Reserving exactly what each batch
// needs would re-copy the whole ring on every batch.)
func TestAddBatchReallocatesLogTimes(t *testing.T) {
	const batch, total = 100, 200000
	var batches [][]trace.Event
	for ts := 0; ts < total; ts += batch {
		batches = append(batches, seq(int64(ts), batch))
	}
	w := NewWindow(WindowConfig{MaxEvents: 150000, MaxAge: -1})
	// 1024·2^k up to 131072, then the cap: nine rings.
	if n := ringAllocs(w, batches); n != 9 {
		t.Errorf("%d batches of %d allocated the ring %d times, want 9", len(batches), batch, n)
	}
	if st := w.Stats(); st.Events != 150000 || st.EvictedCap != total-150000 || st.FirstTs != total-150000 {
		t.Errorf("stats = %+v", st)
	}
	if n := ringAllocs(w, batches); n != 1 { // counts the ring already there, and no other
		t.Errorf("a full ring was reallocated %d more times", n-1)
	}
}

// TestLateArrivalWaitsForTheHead: the age bound evicts from the head only.
// An event older than the horizon that arrives behind younger ones stays
// until it is the head, so the window can span more than MaxAge and
// FirstTs is the oldest-arrived event, not the oldest one.
func TestLateArrivalWaitsForTheHead(t *testing.T) {
	w := NewWindow(WindowConfig{MaxEvents: 100, MaxAge: 100})
	for _, ts := range []int64{1000, 500, 1001} {
		w.Add(ev(ts, "1.2.3.4"))
	}
	st := w.Stats()
	if st.Events != 3 || st.EvictedAge != 0 {
		t.Fatalf("window holds %d events after %d age evictions, want 3 and 0", st.Events, st.EvictedAge)
	}
	if st.FirstTs != 1000 || st.LastTs != 1001 {
		t.Errorf("FirstTs, LastTs = %d, %d; want 1000, 1001", st.FirstTs, st.LastTs)
	}
	snap := w.Snapshot()
	if span := snap.Events[snap.Len()-1].Ts - snap.Events[0].Ts; span != 501 {
		t.Errorf("window spans %d s, want 501 (more than MaxAge)", span)
	}
	if h := w.AgeHorizon(); h != 901 {
		t.Errorf("AgeHorizon = %d, want 901 with an older event still buffered", h)
	}
	// Once the head expires, the late event is the head and goes with it.
	w.Add(ev(1101, "1.2.3.4"))
	if st := w.Stats(); st.Events != 2 || st.FirstTs != 1001 || st.EvictedAge != 2 {
		t.Errorf("after the head expired: %+v, want 2 events from 1001 and 2 age evictions", st)
	}
}

// TestWindowRingBytes: /v1/ingest's ring_bytes is the ring's slots × 24 B
// along the doubling ladder, and stops at the cap.
func TestWindowRingBytes(t *testing.T) {
	w := NewWindow(WindowConfig{MaxEvents: 3000, MaxAge: -1})
	var added int64
	for _, step := range []struct{ added, slots int64 }{
		{0, 0}, {1, 1024}, {1024, 1024}, {1025, 2048}, {2049, 3000}, {10000, 3000},
	} {
		for ; added < step.added; added++ {
			w.Add(ev(added, "1.2.3.4"))
		}
		if got := w.Stats().RingBytes; got != step.slots*24 {
			t.Errorf("after %d adds: ring_bytes = %d, want %d slots × 24 B", added, got, step.slots)
		}
	}
}

// TestWindowRingOutsideHeap: a full 1 M-event window barely moves the Go
// heap, so the collector's pacing never doubles the ring.
func TestWindowRingOutsideHeap(t *testing.T) {
	if !ringOffHeap {
		t.Skip("this build keeps window rings on the Go heap")
	}
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := NewWindow(WindowConfig{MaxEvents: n, MaxAge: -1})
	batch := make([]trace.Event, 4096)
	for ts := 0; ts < n; ts += len(batch) {
		for i := range batch {
			batch[i] = trace.Event{Ts: int64(ts + i), Src: netutil.IPv4(i % 64), Proto: packet.IPProtocolTCP}
		}
		w.AddBatch(batch)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if w.Len() != n {
		t.Fatalf("window holds %d events, want %d", w.Len(), n)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("filling a %d-event window grew HeapAlloc by %d B, want < 1 MiB (the ring is %d B)", n, grew, w.Stats().RingBytes)
	}
	runtime.KeepAlive(w)
}

// TestDroppedWindowReleasesItsRing: a window nobody holds gives its mapping
// back once the collector finds it, and a window that regrows unmaps the
// ring it outgrew at once.
func TestDroppedWindowReleasesItsRing(t *testing.T) {
	if !ringOffHeap {
		t.Skip("this build keeps window rings on the Go heap")
	}
	settle := func() int64 {
		for i := 0; i < 100 && mappedRingBytes() != 0; i++ {
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		return mappedRingBytes()
	}
	for i := 0; i < 1000; i++ {
		w := NewWindow(WindowConfig{MaxEvents: 1 << 20, MaxAge: -1})
		w.Add(ev(int64(i), "1.2.3.4"))
	}
	if got := mappedRingBytes(); got < 1000*1024*24 {
		t.Fatalf("1000 windows hold %d mapped bytes, want at least %d", got, 1000*1024*24)
	}
	if got := settle(); got != 0 {
		t.Fatalf("%d B still mapped after 1000 windows were dropped", got)
	}

	w := NewWindow(WindowConfig{MaxEvents: 1 << 20, MaxAge: -1})
	w.AddBatch(seq(0, 1000))
	if got := mappedRingBytes(); got != 1024*24 {
		t.Errorf("one 1024-slot ring maps %d B, want %d", got, 1024*24)
	}
	w.AddBatch(seq(1000, 5000))
	if got, want := mappedRingBytes(), w.Stats().RingBytes; got != want || want != 8192*24 {
		t.Errorf("a regrown window maps %d B, want its %d-B ring only (8192 slots)", got, want)
	}
	runtime.KeepAlive(w)
}
