package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust/faultio"
	"github.com/darkvec/darkvec/internal/trace"
)

func ev(ts int64, port uint16) trace.Event {
	return trace.Event{Ts: ts, Src: 0x01020304, Dst: 0x0a000001, Port: port, Proto: packet.IPProtocolTCP, Vantage: trace.MustVantage("west")}
}

func appendAll(t *testing.T, l *Log, events []trace.Event) {
	t.Helper()
	for _, e := range events {
		if err := l.Append(e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func replayAll(t *testing.T, l *Log) []trace.Event {
	t.Helper()
	var got []trace.Event
	if err := l.Replay(func(e trace.Event) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendCommitReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{ev(1, 23), ev(2, 2323), ev(3, 80)}
	appendAll(t, l, want)
	got := replayAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	st := l.Stats()
	if st.Appended != 3 || st.Commits != 1 || st.Segments != 1 {
		t.Errorf("stats: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ev(4, 1)); err == nil {
		t.Error("Append after Close succeeded")
	}
}

func TestReopenResumesSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []trace.Event{ev(1, 23)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.RecoveredRecords != 1 || st.Segments != 1 || st.TornTails != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	appendAll(t, l2, []trace.Event{ev(2, 80)})
	got := replayAll(t, l2)
	if len(got) != 2 || got[0].Ts != 1 || got[1].Ts != 2 {
		t.Fatalf("after reopen: %+v", got)
	}
}

// TestTornTailTruncated simulates a kill -9 mid-append: a record cut at an
// arbitrary byte boundary must cost exactly that record — recovery
// truncates to the last valid one and boots.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	// First, measure a full healthy log to pick a torn cut point.
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []trace.Event{ev(1, 23), ev(2, 80), ev(3, 443)})
	full := l.Stats().Bytes
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the third record mid-payload (4 bytes short of complete).
	path := filepath.Join(dir, "00000001.wal")
	if err := os.Truncate(path, full-4); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to boot on torn tail: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.RecoveredRecords != 2 || st.TornTails != 1 || st.DroppedBytes == 0 {
		t.Fatalf("recovery stats after torn tail: %+v", st)
	}
	got := replayAll(t, l2)
	if len(got) != 2 || got[0].Ts != 1 || got[1].Ts != 2 {
		t.Fatalf("replay after torn tail: %+v", got)
	}
	// The log must be appendable again after truncation.
	appendAll(t, l2, []trace.Event{ev(4, 22)})
	if got := replayAll(t, l2); len(got) != 3 || got[2].Ts != 4 {
		t.Fatalf("append after recovery: %+v", got)
	}
}

// TestTornWriterRecovery drives the torn tail through the faultio injector
// instead of file surgery: the process "writes" records that never reach
// the disk past the cut, exactly the kill -9 shape.
func TestTornWriterRecovery(t *testing.T) {
	dir := t.TempDir()
	const cut = headerSize + 3*recordHeaderSize + 70 // somewhere inside the events below
	l, err := Open(dir, Options{
		Wrap: func(w SyncWriter) SyncWriter {
			return faultio.TornWriter(faultio.NopSync(w), cut).(SyncWriter)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []trace.Event{ev(1, 1), ev(2, 2), ev(3, 3), ev(4, 4)})
	// Abandon without Close: a Close would flush nothing new (TornWriter
	// reports success) but the file on disk holds only the prefix.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to boot: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.TornTails != 1 {
		t.Fatalf("want one torn tail, stats: %+v", st)
	}
	got := replayAll(t, l2)
	if len(got) == 0 || len(got) >= 4 {
		t.Fatalf("replay after torn writer: %d events (want a strict non-empty prefix)", len(got))
	}
	for i, e := range got {
		if e.Ts != int64(i+1) {
			t.Fatalf("replay order broken: %+v", got)
		}
	}
}

// The NopSync wrapper loses the concrete type; assert the injector result
// satisfies wal.SyncWriter structurally (compile-time via the conversion
// in TestTornWriterRecovery, runtime here for ErrSyncAfter).
func TestSyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	bang := errors.New("EIO")
	l, err := Open(dir, Options{
		Wrap: func(w SyncWriter) SyncWriter {
			return faultio.ErrSyncAfter(w, 0, bang).(SyncWriter)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ev(1, 23)); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); !errors.Is(err, bang) {
		t.Fatalf("Commit with failing fsync: %v, want %v", err, bang)
	}
	// The log must keep accepting appends after a failed barrier — the
	// daemon degrades, it does not crash.
	if err := l.Append(ev(2, 80)); err != nil {
		t.Fatalf("Append after failed sync: %v", err)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	horizon := int64(0)
	l, err := Open(dir, Options{
		SegmentBytes: 64, // tiny: every commit rotates
		Horizon:      func() int64 { return horizon },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for ts := int64(1); ts <= 4; ts++ {
		appendAll(t, l, []trace.Event{ev(ts, 23)})
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotations with 64-byte segments: %+v", st)
	}

	// Age everything before ts=4 out of the window: sealed segments whose
	// newest event predates the horizon must be deleted on the next rotation.
	horizon = 4
	before := st.Segments
	appendAll(t, l, []trace.Event{ev(5, 23)})
	appendAll(t, l, []trace.Event{ev(6, 23)})
	st = l.Stats()
	if st.Compacted == 0 {
		t.Fatalf("no segments compacted past horizon: %+v (had %d)", st, before)
	}
	got := replayAll(t, l)
	for _, e := range got {
		if e.Ts < horizon-1 { // the segment holding ts=3 may straddle
			if e.Ts < 3 {
				t.Errorf("replay returned compacted-away event ts=%d", e.Ts)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != st.Segments {
		t.Errorf("on-disk segments %d != stats %d", len(files), st.Segments)
	}
}

// TestRotationKeepsTheSegmentItSeals: the batch whose commit seals a
// segment is not applied to the window until the commit returns, so that
// rotation judges only the segments sealed before it, whatever the horizon.
func TestRotationKeepsTheSegmentItSeals(t *testing.T) {
	l, err := Open(t.TempDir(), Options{
		SegmentBytes: 1, // every commit rotates
		Horizon:      func() int64 { return 1 << 40 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, []trace.Event{ev(1, 23)})
	if st := l.Stats(); st.Rotations != 1 || st.Compacted != 0 {
		t.Fatalf("first rotation: %+v; want the sealed segment kept", st)
	}
	appendAll(t, l, []trace.Event{ev(2, 23)})
	if st := l.Stats(); st.Rotations != 2 || st.Compacted != 1 {
		t.Fatalf("second rotation: %+v; want the first segment compacted, the second kept", st)
	}
	if got := replayAll(t, l); len(got) != 1 || got[0].Ts != 2 {
		t.Fatalf("replay = %+v, want the event of the segment the last rotation sealed", got)
	}
}

func TestCompactNeverTouchesActive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, []trace.Event{ev(1, 23)})
	if n := l.Compact(1 << 40); n != 0 {
		t.Fatalf("Compact removed the active segment (%d)", n)
	}
	if got := replayAll(t, l); len(got) != 1 {
		t.Fatalf("events lost to compaction: %+v", got)
	}
}

func TestAgeRotation(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	l, err := Open(dir, Options{
		SegmentAge: time.Minute,
		Clock:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, []trace.Event{ev(1, 23)})
	if st := l.Stats(); st.Rotations != 0 {
		t.Fatalf("rotated before age bound: %+v", st)
	}
	now = now.Add(2 * time.Minute)
	appendAll(t, l, []trace.Event{ev(2, 23)})
	if st := l.Stats(); st.Rotations != 1 {
		t.Fatalf("age rotation did not fire: %+v", st)
	}
}

func TestIntervalPolicySyncsOnCadence(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	l, err := Open(dir, Options{
		Policy:   SyncInterval,
		Interval: time.Second,
		Clock:    func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, []trace.Event{ev(1, 23)})
	first := l.Stats().Syncs
	appendAll(t, l, []trace.Event{ev(2, 23)}) // same instant: no new fsync
	if got := l.Stats().Syncs; got != first {
		t.Fatalf("interval policy synced twice within the interval: %d -> %d", first, got)
	}
	now = now.Add(2 * time.Second)
	appendAll(t, l, []trace.Event{ev(3, 23)})
	if got := l.Stats().Syncs; got != first+1 {
		t.Fatalf("interval policy did not sync after the interval: %d -> %d", first, got)
	}
}

func TestOffPolicyNeverSyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []trace.Event{ev(1, 23)})
	if st := l.Stats(); st.Syncs != 0 {
		t.Fatalf("off policy fsynced: %+v", st)
	}
	// Close still makes the tail durable: a clean shutdown loses nothing.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptHeaderMovedAside(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []trace.Event{ev(1, 23)})
	l.Close()
	path := filepath.Join(dir, "00000001.wal")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff // destroy the magic
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("corrupt header refused boot: %v", err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); len(got) != 0 {
		t.Fatalf("replayed events from a headerless segment: %+v", got)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("corrupt segment not preserved as evidence: %v", err)
	}
}

// TestCorruptMiddleRecordStopsScan: a CRC-bad record in the middle of a
// segment marks the durability boundary — everything before it replays,
// everything after is indistinguishable from a torn rewrite and dropped.
func TestCorruptMiddleRecordStopsScan(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []trace.Event{ev(1, 23), ev(2, 80), ev(3, 443)})
	l.Close()
	path := filepath.Join(dir, "00000001.wal")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record (first record starts at
	// headerSize; each holds a fixed 20-byte event + 1-byte vlen + "west").
	recLen := recordHeaderSize + 20 + 1 + 4
	b[headerSize+recLen+recordHeaderSize+2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("corrupt record refused boot: %v", err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 1 || got[0].Ts != 1 {
		t.Fatalf("replay past a corrupt record: %+v", got)
	}
	if st := l2.Stats(); st.TornTails != 1 || st.DroppedBytes != int64(2*recLen) {
		t.Fatalf("corrupt-middle stats: %+v (recLen %d)", st, recLen)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"off", SyncOff, true},
		{"", SyncAlways, true},
		{"fsync", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && tc.in != "" && got.String() != tc.in {
			t.Errorf("round trip %q -> %q", tc.in, got.String())
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("foreign file counted as segment: %+v", st)
	}
}

func TestQuarantineHookSeesUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []trace.Event{ev(1, 23)})
	l.Close()

	// Append a validly framed record whose payload is not an event.
	f, err := os.OpenFile(filepath.Join(dir, "00000001.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	writeRawRecord(t, f, []byte("not an event"))
	f.Close()

	var quarantined int
	l2, err := Open(dir, Options{
		Quarantine: func(err error) error {
			quarantined++
			if !strings.Contains(err.Error(), "trace:") {
				t.Errorf("quarantine got %v, want a trace decode error", err)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 1 || quarantined != 1 {
		t.Fatalf("replayed %d events, quarantined %d; want 1 and 1", len(got), quarantined)
	}
}

// TestTaggedSegmentFormatUnchanged: a segment holding vantage-tagged records
// written while Event.Vantage was a string (bytes captured at the parent
// commit) replays to the same events under the interned id, and logging
// those events again produces the same segment byte for byte.
func TestTaggedSegmentFormatUnchanged(t *testing.T) {
	golden, err := hex.DecodeString("4456574c01000000" +
		"23000000e3ba41b300f1536500000000077100cb2a0012c6170006010e74656c6573636f70652d77657374" +
		"150000006030dc6001f1536500000000630200c0820012c63500110000" +
		"16000000c992152e02f1536500000000077100cb010012c600000100016e")
	if err != nil {
		t.Fatal(err)
	}
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "00000001.wal"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := replayAll(t, l)
	l.Close()
	if len(events) != 3 {
		t.Fatalf("replayed %d events, want 3", len(events))
	}
	want := []trace.Event{
		{Ts: 1700000000, Src: 0xcb007107, Dst: 0xc612002a, Port: 23, Proto: packet.IPProtocolTCP, Mirai: true, Vantage: trace.MustVantage("telescope-west")},
		{Ts: 1700000001, Src: 0xc0000263, Dst: 0xc6120082, Port: 53, Proto: packet.IPProtocolUDP},
		{Ts: 1700000002, Src: 0xcb007107, Dst: 0xc6120001, Proto: packet.IPProtocolICMPv4, Vantage: trace.MustVantage("n")},
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v (%q), want %+v", i, events[i], events[i].Vantage, want[i])
		}
	}

	fresh := t.TempDir()
	l2, err := Open(fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l2, events)
	l2.Close()
	rewritten, err := os.ReadFile(filepath.Join(fresh, "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, golden) {
		t.Errorf("rewritten segment\n %x\nwant\n %x", rewritten, golden)
	}
}
