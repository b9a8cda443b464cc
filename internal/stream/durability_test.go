package stream

import (
	"bytes"
	"errors"
	"testing"

	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/wal"
)

func durEvent(ts int64, port uint16) trace.Event {
	return trace.Event{Ts: ts, Src: 0x0a0a0a0a, Dst: 0x01010101, Port: port, Proto: packet.IPProtocolTCP, Vantage: trace.MustVantage("west")}
}

// TestReplayEquivalence is the durability contract end to end: a window
// rebuilt purely from the WAL must be byte-identical — after the time-sort
// both snapshot paths share — to the pre-crash window's snapshot.
func TestReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Log: log, Window: WindowConfig{MaxEvents: 1 << 10}}
	in := New(cfg)
	for ts := int64(1); ts <= 500; ts++ {
		if !in.Push(durEvent(ts, uint16(ts%100))) {
			t.Fatalf("push %d shed", ts)
		}
	}
	in.Close() // drains the queue through the log into the window
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := in.Window().Snapshot().WriteCSV(&before); err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.Accepted != 500 || st.LogFailed != 0 {
		t.Fatalf("pre-crash stats: %+v", st)
	}

	// "Reboot": a fresh window fed only by WAL replay.
	log2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	rebuilt := NewWindow(WindowConfig{MaxEvents: 1 << 10})
	if err := log2.Replay(func(e trace.Event) error {
		rebuilt.Add(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := rebuilt.Snapshot().WriteCSV(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("rebuilt window differs from pre-crash snapshot:\nbefore %d bytes, after %d bytes",
			before.Len(), after.Len())
	}
}

// failLog fails everything after n appends; commits fail alongside.
type failLog struct {
	n   int
	err error
}

func (f *failLog) Append(trace.Event) error {
	if f.n <= 0 {
		return f.err
	}
	f.n--
	return nil
}

func (f *failLog) Commit() error {
	if f.n <= 0 {
		return f.err
	}
	return nil
}

// TestLogFailureDegrades: a dying log must not cost a single window event —
// only the durability claim, counted in LogFailed.
func TestLogFailureDegrades(t *testing.T) {
	in := New(Config{Log: &failLog{n: 3, err: errors.New("ENOSPC")}})
	for ts := int64(1); ts <= 10; ts++ {
		in.Push(durEvent(ts, 23))
	}
	in.Close()
	st := in.Stats()
	if st.Accepted != 10 || st.Window.Events != 10 {
		t.Fatalf("events lost to log failure: %+v", st)
	}
	if st.LogFailed == 0 || st.LogFailed > 10 {
		t.Fatalf("LogFailed accounting: %+v", st)
	}
}

// TestCompactionHorizonCoversLateArrival: the WAL's bound is AgeHorizon
// until a late arrival below it waits behind the head, then that event's
// Ts; 0 wherever AgeHorizon is.
func TestCompactionHorizonCoversLateArrival(t *testing.T) {
	w := NewWindow(WindowConfig{MaxAge: 100})
	if h := w.CompactionHorizon(); h != 0 {
		t.Fatalf("empty window bound = %d, want 0", h)
	}
	w.Add(durEvent(1000, 23))
	if h := w.CompactionHorizon(); h != 900 {
		t.Fatalf("bound = %d, want AgeHorizon 900", h)
	}
	w.Add(durEvent(500, 23))
	w.Add(durEvent(1001, 23))
	if h := w.CompactionHorizon(); h != 500 {
		t.Fatalf("bound = %d, want the held late arrival's 500", h)
	}
	w.Add(durEvent(1101, 23)) // the head expires, and the late event with it
	if h := w.CompactionHorizon(); h != 1001 {
		t.Fatalf("bound after the head expired = %d, want AgeHorizon 1001", h)
	}
	unbounded := NewWindow(WindowConfig{MaxAge: -1})
	unbounded.Add(durEvent(1000, 23))
	if h := unbounded.CompactionHorizon(); h != 0 {
		t.Fatalf("unbounded window bound = %d, want 0", h)
	}
}

func TestAgeHorizon(t *testing.T) {
	w := NewWindow(WindowConfig{MaxAge: 100})
	if h := w.AgeHorizon(); h != 0 {
		t.Fatalf("empty window horizon = %d, want 0", h)
	}
	w.Add(durEvent(1000, 23))
	if h := w.AgeHorizon(); h != 900 {
		t.Fatalf("horizon = %d, want 900", h)
	}
	w.Add(durEvent(2000, 23))
	if h := w.AgeHorizon(); h != 1900 {
		t.Fatalf("horizon after newer event = %d, want 1900", h)
	}
	unbounded := NewWindow(WindowConfig{MaxAge: -1})
	unbounded.Add(durEvent(1000, 23))
	if h := unbounded.AgeHorizon(); h != 0 {
		t.Fatalf("unbounded window horizon = %d, want 0", h)
	}
}

func TestPopBatchDrains(t *testing.T) {
	q := newQueue(8, ShedNewest)
	for ts := int64(1); ts <= 5; ts++ {
		q.push(durEvent(ts, 23))
	}
	batch, ok := q.popBatch(nil, 3)
	if !ok || len(batch) != 3 || batch[0].Ts != 1 || batch[2].Ts != 3 {
		t.Fatalf("first popBatch: %v %+v", ok, batch)
	}
	batch, ok = q.popBatch(batch[:0], 10)
	if !ok || len(batch) != 2 || batch[1].Ts != 5 {
		t.Fatalf("second popBatch: %v %+v", ok, batch)
	}
	q.close()
	if batch, ok = q.popBatch(batch[:0], 10); ok || len(batch) != 0 {
		t.Fatalf("popBatch after close+drain: %v %+v", ok, batch)
	}
}
