package stream

import (
	"testing"

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
