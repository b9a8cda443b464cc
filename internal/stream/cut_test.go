package stream

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// rolledWindow feeds a small window enough traffic that its ring has
// wrapped and both bounds have evicted: a dense first half (ten events a
// second, many on one Ts) overflows the cap, a sparse second half ages
// events out. A twentieth of the events arrive up to 20 s late, so equal
// timestamps meet out of arrival order. Five heavy senders, fifty-five light
// ones and a stream of one-packet senders straddle every threshold tested.
func rolledWindow(t *testing.T) *Window {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	w := NewWindow(WindowConfig{MaxEvents: 600, MaxAge: 400})
	ts := int64(1_614_643_200) // 2021-03-02 00:00 UTC
	ports := []uint16{22, 23, 80, 445, 8080}
	for i := 0; i < 3000; i++ {
		if i < 1500 {
			if rng.Intn(10) == 0 {
				ts++
			}
		} else {
			ts += int64(rng.Intn(4))
		}
		e := trace.Event{
			Ts:      ts,
			Src:     netutil.IPv4(0x0a000000 + uint32(rng.Intn(60))),
			Dst:     netutil.IPv4(0xc6120000 + uint32(rng.Intn(256))),
			Port:    ports[rng.Intn(len(ports))],
			Proto:   packet.IPProtocolTCP,
			Mirai:   rng.Intn(7) == 0,
			Vantage: trace.VantageID(rng.Intn(2)),
		}
		switch r := rng.Intn(20); {
		case r == 0:
			e.Ts -= int64(rng.Intn(21))
		case r < 3:
			e.Src = netutil.IPv4(0xac100000 + uint32(i)) // one packet each
		case r < 10:
			e.Src = netutil.IPv4(0x0a000000 + uint32(rng.Intn(5)))
		}
		switch r := rng.Intn(10); {
		case r == 0:
			e.Proto, e.Port = packet.IPProtocolUDP, 53
		case r == 1:
			e.Proto, e.Port = packet.IPProtocolICMPv4, 0
		case r < 4:
			e.Port = uint16(1 + rng.Intn(2000))
		}
		w.Add(e)
	}
	st := w.Stats()
	if w.head == 0 || st.EvictedCap == 0 || st.EvictedAge == 0 {
		t.Fatalf("window not rolled: head %d, %+v", w.head, st)
	}
	return w
}

// TestWindowStatsMatchTraceSummary: the summary a cut reads off the ring
// is the summary of the snapshot it no longer takes, and its span is that
// snapshot's.
func TestWindowStatsMatchTraceSummary(t *testing.T) {
	w := rolledWindow(t)
	cut := w.Cut(10)
	snap := w.Snapshot()
	if want := snap.Summary(trace.TopTCPRows); !reflect.DeepEqual(cut.Stats, want) {
		t.Errorf("cut stats %+v, Snapshot().Summary %+v", cut.Stats, want)
	}
	first, last := snap.Span()
	if cut.First != first || cut.Last != last || cut.Days() != snap.Days() {
		t.Errorf("cut spans [%d, %d] over %d days, the snapshot [%d, %d] over %d",
			cut.First, cut.Last, cut.Days(), first, last, snap.Days())
	}
}

// TestTrainableCutIsTheFilter: the window's cut is the cut of its snapshot
// — trainable events in the same order, equal timestamps that arrived out
// of order included, per-sender counts, summary and span — and its
// trainable events sit in a slice of exactly their number.
func TestTrainableCutIsTheFilter(t *testing.T) {
	w := rolledWindow(t)
	full := w.Snapshot()
	late, ties := 0, 0
	runs := w.runsLocked()
	ring := append(append([]trace.Event(nil), runs[0]...), runs[1]...)
	for i := 1; i < len(ring); i++ {
		if ring[i].Ts < ring[i-1].Ts {
			late++
		}
	}
	for i := 1; i < len(full.Events); i++ {
		if full.Events[i].Ts == full.Events[i-1].Ts {
			ties++
		}
	}
	if late == 0 || ties == 0 {
		t.Fatalf("window holds %d late arrivals and %d equal timestamps; want both", late, ties)
	}
	cut, want := w.Cut(10), full.Cut(10)
	if want.Trainable.Len() == 0 || want.Trainable.Len() == full.Len() {
		t.Fatalf("%d of %d events trainable; the window does not exercise the cut", want.Trainable.Len(), full.Len())
	}
	if !reflect.DeepEqual(cut, want) {
		t.Errorf("window cut (%d trainable events, stats %+v, span [%d, %d]) differs from the snapshot's (%d, %+v, [%d, %d])",
			cut.Trainable.Len(), cut.Stats, cut.First, cut.Last, want.Trainable.Len(), want.Stats, want.First, want.Last)
	}
	if c := cap(cut.Trainable.Events); c != cut.Trainable.Len() {
		t.Errorf("trainable slice has cap %d for %d events", c, cut.Trainable.Len())
	}
}

// TestCutAllocatesOneTrainableCopy: against a cut that keeps nobody (same
// summary, same work otherwise), a cut allocates once more, and exactly
// the bytes of its trainable events (24 B each, to the allocator's size
// class). Each figure is the least of three runs, clear of the runtime's
// own occasional allocations.
func TestCutAllocatesOneTrainableCopy(t *testing.T) {
	w := rolledWindow(t)
	measure := func(fn func()) (mallocs, bytes uint64) {
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			if m, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; i == 0 || b < bytes {
				mallocs, bytes = m, b
			}
		}
		return mallocs, bytes
	}
	var cut trace.Cut
	var events []trace.Event
	kept := w.Cut(10).Trainable.Len()
	_, slice := measure(func() { events = make([]trace.Event, 0, kept) })
	m1, b1 := measure(func() { cut = w.Cut(10) })
	m0, b0 := measure(func() { cut = w.Cut(1 << 30) })
	if m1-m0 != 1 || b1-b0 != slice {
		t.Errorf("the trainable copy cost %d allocations and %d bytes; want 1 and %d (%d events × 24 B)",
			m1-m0, b1-b0, slice, kept)
	}
	_, _ = cut, events
}
