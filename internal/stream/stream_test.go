package stream

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/robust/faultio"
	"github.com/darkvec/darkvec/internal/trace"
)

// line renders one valid protocol line (without newline).
func line(ts int64, src string) string {
	return fmt.Sprintf("%d,%s,10.0.0.1,23,tcp,0", ts, src)
}

// startTCP boots an ingestor with a TCP listener and returns its address.
func startTCP(t *testing.T, cfg Config) (*Ingestor, string) {
	t.Helper()
	in := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go in.Serve(ln)
	t.Cleanup(in.Close)
	return in, ln.Addr().String()
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func TestIngestorTCPBasic(t *testing.T) {
	in, addr := startTCP(t, Config{Budget: robust.Budget{MaxErrors: 10}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Header line and blank lines are protocol no-ops (netcat-a-file works).
	fmt.Fprintf(conn, "%s\n\n%s\n%s\n", trace.CSVHeaderLine, line(1, "1.1.1.1"), line(2, "2.2.2.2"))
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() == 2 }, "2 events in window")
	st := in.Stats()
	if st.Accepted != 2 || st.Parse.Read != 2 || st.Parse.Skipped != 0 {
		t.Errorf("stats = %+v, want 2 accepted/read, 0 skipped", st)
	}
	if st.TotalConns != 1 {
		t.Errorf("TotalConns = %d, want 1", st.TotalConns)
	}
	waitFor(t, 2*time.Second, func() bool { return in.Stats().OpenConns == 0 }, "conn closed")
}

func TestIngestorUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "ingest.sock")
	in := New(Config{})
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go in.Serve(ln)
	defer in.Close()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s\n", line(7, "3.3.3.3"))
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() == 1 }, "event over unix socket")
}

func TestIngestorQuarantineAndBudgetKill(t *testing.T) {
	in, addr := startTCP(t, Config{Budget: robust.Budget{MaxErrors: 2}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two garbage lines are quarantined, the connection survives.
	fmt.Fprintf(conn, "garbage\n1,2,3\n%s\n", line(1, "1.1.1.1"))
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() == 1 }, "good line after garbage")
	if got := in.Report().Skipped(); got != 2 {
		t.Errorf("Skipped = %d, want 2", got)
	}
	// The third bad line exceeds MaxErrors=2: connection is cut.
	fmt.Fprintf(conn, "more garbage\n")
	waitFor(t, 2*time.Second, func() bool { return in.Stats().KilledConns == 1 }, "budget blow cuts conn")
	one := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(one); err == nil {
		t.Error("connection still open after budget exceeded")
	}
}

func TestIngestorSlowLorisDisconnect(t *testing.T) {
	// A writer that drips bytes without ever finishing a line must be cut
	// by the idle deadline, not hold a handler goroutine hostage.
	in, addr := startTCP(t, Config{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "1,1.1.")       // mid-line, no newline
	time.Sleep(50 * time.Millisecond) // under the deadline: still alive
	fmt.Fprintf(conn, "1.1")          // progress resets the deadline
	waitFor(t, 3*time.Second, func() bool { return in.Stats().KilledConns == 1 }, "slow-loris cut")
	if in.Window().Len() != 0 {
		t.Errorf("partial line entered window")
	}
}

func TestIngestorMidLineDisconnect(t *testing.T) {
	// A connection dying mid-line delivers a torn tail; it must be
	// quarantined, never admitted.
	in, addr := startTCP(t, Config{Budget: robust.Budget{MaxErrors: 10}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s\n123,4.4.4.4,10.0", line(1, "1.1.1.1")) // torn tail
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return in.Report().Skipped() == 1 }, "torn tail quarantined")
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() == 1 }, "whole line admitted")
}

func TestIngestorOversizeLineCut(t *testing.T) {
	in, addr := startTCP(t, Config{MaxLineBytes: 64, Budget: robust.Budget{MaxErrors: 10}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s\n", strings.Repeat("x", 500))
	waitFor(t, 2*time.Second, func() bool { return in.Stats().KilledConns == 1 }, "oversize line cuts conn")
	if got := in.Report().Skipped(); got != 1 {
		t.Errorf("Skipped = %d, want 1 (oversize quarantined)", got)
	}
}

// fakeClock is a hand-driven clock: Now reads it, and a sleep advances it
// by the time slept instead of waiting.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return ctx.Err()
}

func TestIngestorThrottleBackpressure(t *testing.T) {
	// 50 events at 1000/s with burst 10 on a clock only the throttle
	// moves: the burst admits 10, each of the other 40 waits exactly one
	// token's 1ms, and nothing is lost. The clock starts at the wall
	// clock's time, as the connection's read deadline is set from it.
	clock := &fakeClock{now: time.Now()}
	start := clock.Now()
	in, addr := startTCP(t, Config{Rate: 1000, Burst: 10, Clock: clock.Now, sleep: clock.sleep})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		fmt.Fprintf(conn, "%s\n", line(int64(i), "1.1.1.1"))
	}
	conn.Close()
	waitFor(t, 5*time.Second, func() bool { return in.Window().Len() == 50 }, "all events admitted")
	if st := in.Stats(); st.Throttled != 40 {
		t.Errorf("Throttled = %d, want 40", st.Throttled)
	}
	if waited := clock.Now().Sub(start); waited != 40*time.Millisecond {
		t.Errorf("throttle waited %v in all, want 40ms", waited)
	}
}

func TestIngestorBurstOverloadAccounting(t *testing.T) {
	// Firehose far past the queue capacity with a slow consumer is
	// impossible to orchestrate deterministically from outside, so drive
	// Push directly: every parsed event must be accepted or accounted shed.
	for _, policy := range []DropPolicy{ShedNewest, DropOldest} {
		t.Run(policy.String(), func(t *testing.T) {
			in := New(Config{QueueSize: 16, Policy: policy, Window: WindowConfig{MaxEvents: 1 << 16, MaxAge: -1}})
			const total = 5000
			for i := 0; i < total; i++ {
				in.Push(ev(int64(i), "1.1.1.1"))
			}
			in.Close()
			st := in.Stats()
			if got := st.Accepted + st.DroppedNewest + st.DroppedOldest; got != total {
				t.Fatalf("accounting: accepted %d + droppedNewest %d + droppedOldest %d = %d, want %d",
					st.Accepted, st.DroppedNewest, st.DroppedOldest, got, total)
			}
			if int64(in.Window().Len()) != st.Accepted {
				t.Errorf("window %d != accepted %d", in.Window().Len(), st.Accepted)
			}
			switch policy {
			case ShedNewest:
				if st.DroppedOldest != 0 {
					t.Errorf("ShedNewest evicted %d oldest", st.DroppedOldest)
				}
			case DropOldest:
				if st.DroppedNewest != 0 {
					t.Errorf("DropOldest shed %d newest", st.DroppedNewest)
				}
				// The freshest event always survives under DropOldest.
				if evs := in.Window().Snapshot().Events; len(evs) == 0 || evs[len(evs)-1].Ts != total-1 {
					t.Errorf("newest event lost under DropOldest")
				}
			}
		})
	}
}

func TestIngestorOverloadWireSoak(t *testing.T) {
	// Chaos soak over the real wire: several writers flood concurrently
	// with garbage mixed in; afterwards the pipeline's books must balance
	// exactly: parsed = accepted + dropped, and window <= its cap.
	in, addr := startTCP(t, Config{
		QueueSize: 64,
		Window:    WindowConfig{MaxEvents: 1 << 12, MaxAge: -1},
		Budget:    robust.Budget{MaxErrors: 1 << 30},
	})
	const writers, perWriter = 4, 2000
	errc := make(chan error, writers)
	for wr := 0; wr < writers; wr++ {
		go func(wr int) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			for i := 0; i < perWriter; i++ {
				if i%100 == 99 {
					fmt.Fprintf(conn, "not,an,event\n")
					continue
				}
				fmt.Fprintf(conn, "%s\n", line(int64(i), fmt.Sprintf("10.%d.%d.%d", wr, i/250, i%250+1)))
			}
			errc <- nil
		}(wr)
	}
	for i := 0; i < writers; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return in.Stats().OpenConns == 0 }, "writers drained")
	in.Close()
	st := in.Stats()
	wantParsed := int64(writers * perWriter * 99 / 100)
	if st.Parse.Read != wantParsed {
		t.Errorf("parsed %d, want %d", st.Parse.Read, wantParsed)
	}
	if st.Parse.Skipped != int64(writers*perWriter/100) {
		t.Errorf("quarantined %d, want %d", st.Parse.Skipped, writers*perWriter/100)
	}
	if got := st.Accepted + st.DroppedNewest + st.DroppedOldest; got != wantParsed {
		t.Errorf("accounting: %d accepted + %d + %d dropped = %d, want %d",
			st.Accepted, st.DroppedNewest, st.DroppedOldest, got, wantParsed)
	}
	if in.Window().Len() > 1<<12 {
		t.Errorf("window %d exceeds cap %d", in.Window().Len(), 1<<12)
	}
}

func TestIngestorConsumeFaultyReader(t *testing.T) {
	// A reader that errors mid-stream (faultio chaos) quarantines the
	// failure and reports it, without losing already-delivered events.
	var body strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&body, "%s\n", line(int64(i), "1.1.1.1"))
	}
	in := New(Config{Budget: robust.Budget{MaxErrors: 5}})
	defer in.Close()
	r := faultio.ErrAfter(strings.NewReader(body.String()), 200, errors.New("connection reset"))
	err := in.Consume(r, "chaos")
	if err == nil {
		t.Fatal("Consume swallowed the injected read error")
	}
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() > 0 }, "pre-fault events admitted")
	// Two quarantine entries: the torn tail the fault left behind, and the
	// read error itself.
	if got := in.Report().Skipped(); got != 2 {
		t.Errorf("Skipped = %d, want 2 (torn tail + read error)", got)
	}
}

func TestIngestorFollowTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.csv")
	in := New(Config{Budget: robust.Budget{MaxErrors: 10}})
	defer in.Close()
	done := make(chan error, 1)
	go func() { done <- in.Follow(path, 10*time.Millisecond) }()

	// File appears after Follow starts; existing content is read.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "%s\n%s\n", trace.CSVHeaderLine, line(1, "1.1.1.1"))
	waitFor(t, 3*time.Second, func() bool { return in.Window().Len() == 1 }, "initial content tailed")

	// A partial line is held until its newline arrives.
	fmt.Fprintf(f, "2,2.2.2.2,10.0.0.1,")
	time.Sleep(50 * time.Millisecond)
	if in.Window().Len() != 1 {
		t.Fatal("partial line admitted before completion")
	}
	fmt.Fprintf(f, "23,udp,0\n")
	waitFor(t, 3*time.Second, func() bool { return in.Window().Len() == 2 }, "completed line admitted")
	f.Close()

	// Rotation: replace the file; the tail re-reads from the new one.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(line(3, "3.3.3.3")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return in.Window().Len() == 3 }, "rotated file tailed")

	in.Close()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Follow did not return after Close")
	}
	if got := in.Report().Read(); got != 3 {
		t.Errorf("Read = %d, want 3", got)
	}
}

// TestIngestorFollowOversizeLineBounded: Follow enforces MaxLineBytes while
// it reads — a 32 MiB line under the default 4 KiB cap is discarded as it
// streams past and charged once, and the valid line after it is read,
// without ever buffering the oversize line.
func TestIngestorFollowOversizeLineBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feed.csv")
	data := make([]byte, 32<<20, 32<<20+64)
	for i := range data {
		data[i] = 'x'
	}
	data = append(data, '\n')
	data = append(data, line(1, "1.1.1.1")+"\n"...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data = nil
	in := New(Config{Budget: robust.Budget{MaxErrors: 10}})
	defer in.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() { done <- in.Follow(path, 10*time.Millisecond) }()
	waitFor(t, 10*time.Second, func() bool { return in.Window().Len() == 1 }, "line after the oversize one admitted")
	runtime.ReadMemStats(&after)
	in.Close()
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if read, skipped := in.Report().Read(), in.Report().Skipped(); read != 1 || skipped != 1 {
		t.Errorf("read %d, skipped %d; want 1 and 1", read, skipped)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("following a 32 MiB line allocated %d bytes, want at most 1 MiB", grew)
	}
}

func TestIngestorCloseDrainsAndStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	in, addr := startTCP(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s\n", line(1, "1.1.1.1"))
	waitFor(t, 2*time.Second, func() bool { return in.Window().Len() == 1 }, "event admitted")
	in.Close()
	in.Close() // idempotent
	conn.Close()
	if in.Push(ev(9, "9.9.9.9")) {
		t.Error("Push accepted after Close")
	}
	waitFor(t, 3*time.Second, func() bool { return runtime.NumGoroutine() <= before+1 },
		fmt.Sprintf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine()))
}

func TestIngestorStallWatchdog(t *testing.T) {
	var nowNano atomic.Int64
	nowNano.Store(time.Unix(1000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNano.Load()) }
	in := New(Config{StallAfter: time.Minute, Clock: clock})
	defer in.Close()
	if in.Stalled() {
		t.Fatal("stalled at boot")
	}
	in.Push(ev(1, "1.1.1.1"))
	waitFor(t, 2*time.Second, func() bool { return in.Stats().Accepted == 1 }, "event consumed")
	nowNano.Add(int64(2 * time.Minute))
	if !in.Stalled() {
		t.Error("silent feed not flagged stalled")
	}
	if st := in.Stats(); !st.Stalled || st.SilenceSec < 100 {
		t.Errorf("Stats stalled=%v silence=%v, want stalled with ~120s silence", st.Stalled, st.SilenceSec)
	}
	in.Push(ev(2, "1.1.1.1"))
	waitFor(t, 2*time.Second, func() bool { return !in.Stalled() }, "recovery clears stall")
}
