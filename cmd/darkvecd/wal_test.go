package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust/faultio"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/wal"
)

// walOpts is liveOpts with a WAL directory under dir and the zero-loss
// fsync policy.
func walOpts(dir string) options {
	o := liveOpts()
	o.wal = filepath.Join(dir, "wal")
	o.walFsync = "always"
	return o
}

// walTrace builds n deterministic events across 10 senders (dense enough
// per sender to clear the trainer's min-count), ts stepping by step seconds.
func walTrace(n int, step int64) *trace.Trace {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{
			Ts:    1700000000 + int64(i)*step,
			Src:   netutil.IPv4(0x0a000000 + uint32(i%10)),
			Dst:   netutil.IPv4(0xc0a80001),
			Port:  uint16(23 + i%3),
			Proto: packet.IPProtocolTCP,
		}
	}
	return trace.New(events)
}

// walIngestStats is /v1/ingest's WAL-extended shape.
type walIngestStats struct {
	stream.Stats
	WAL *struct {
		wal.Stats
		Replayed          int64 `json:"replayed"`
		ReplayQuarantined int64 `json:"replay_quarantined"`
	} `json:"wal"`
}

func getIngestWAL(t *testing.T, base string) walIngestStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/ingest")
	if err != nil {
		t.Fatalf("/v1/ingest: %v", err)
	}
	defer resp.Body.Close()
	var st walIngestStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/v1/ingest decode: %v", err)
	}
	return st
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newestSegment returns the highest-numbered segment file in the WAL dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// TestWALCrashReplayStorm is the kill -9 chaos arc: a WAL-backed daemon
// takes an ingest storm, dies abruptly (crash simulated by a torn tail cut
// into the on-disk log — the bytes a kill -9 mid-append leaves behind),
// and reboots. Recovery must truncate the torn record without refusing to
// boot, replay must rebuild the window, and /v1/ingest accounting must be
// exact: parsed = replayed + quarantined, with zero loss beyond the single
// torn record under -walfsync=always.
func TestWALCrashReplayStorm(t *testing.T) {
	dir := t.TempDir()
	o := walOpts(dir)
	const storm = 300

	ctx, cancel := context.WithCancel(context.Background())
	httpAddr, ingestAddr, _, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr
	streamTrace(t, ingestAddr, walTrace(storm, 1))
	waitFor(t, "storm accepted", func() bool { return getIngestStats(t, base).Accepted == storm })
	if st := getIngestWAL(t, base); st.WAL == nil || st.WAL.Appended != storm || st.WAL.Policy != "always" {
		t.Fatalf("pre-crash WAL stats: %+v", st.WAL)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("daemon A: %v", err)
	}

	// The kill -9 moment: the last record on disk is cut mid-payload.
	seg := newestSegment(t, o.wal)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	httpAddr2, _, _, runErr2 := startLive(t, ctx2, o)
	base2 := "http://" + httpAddr2
	st := getIngestWAL(t, base2)
	if st.WAL == nil {
		t.Fatal("rebooted daemon reports no WAL")
	}
	if st.WAL.TornTails != 1 {
		t.Errorf("torn tails = %d, want 1", st.WAL.TornTails)
	}
	// Zero loss beyond the torn record: 299 of 300 replayed, none quarantined.
	if st.WAL.Replayed != storm-1 || st.WAL.ReplayQuarantined != 0 {
		t.Errorf("replayed %d, quarantined %d; want %d and 0", st.WAL.Replayed, st.WAL.ReplayQuarantined, storm-1)
	}
	// parsed = replayed + quarantined, exact.
	if st.Parse.Read != st.WAL.Replayed || st.Parse.Skipped != st.WAL.ReplayQuarantined {
		t.Errorf("parse accounting: read %d skipped %d vs replayed %d quarantined %d",
			st.Parse.Read, st.Parse.Skipped, st.WAL.Replayed, st.WAL.ReplayQuarantined)
	}
	if st.Window.Events != storm-1 {
		t.Errorf("rebuilt window holds %d events, want %d", st.Window.Events, storm-1)
	}
	cancel2()
	if err := <-runErr2; err != nil {
		t.Fatalf("daemon B: %v", err)
	}
}

// TestLiveRestartKeepsWindowOnce: clean restarts leave the window exactly
// as it was. A 2-day -in seed, then a 3-day live feed through a
// -walfsync off log whose newest events expire the seed's oldest under
// the default 24 h horizon; three SIGTERM reboots with no traffic in
// between must each rebuild the events and senders the running window
// held — nothing doubled, nothing expired re-admitted.
func TestLiveRestartKeepsWindowOnce(t *testing.T) {
	dir := t.TempDir()
	o := walOpts(dir)
	o.walFsync = "off"
	o.in, _ = writeTestTrace(t, dir)
	live := darksim.Generate(darksim.Config{Seed: 9, Days: 3, Scale: 0.005, Rate: 0.05}).Trace

	ctx, cancel := context.WithCancel(context.Background())
	httpAddr, ingestAddr, _, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr
	streamTrace(t, ingestAddr, live)
	waitFor(t, "live feed applied", func() bool {
		st := getIngestStats(t, base)
		return st.Accepted+st.DroppedNewest+st.DroppedOldest == int64(live.Len())
	})
	want := getIngestStats(t, base).Window
	if want.EvictedAge == 0 || want.Events == 0 {
		t.Fatalf("test premise: the live feed must expire seed events and leave a window: %+v", want)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("first run: %v", err)
	}

	for boot := 1; boot <= 3; boot++ {
		ctx, cancel := context.WithCancel(context.Background())
		httpAddr, _, _, runErr := startLive(t, ctx, o)
		got := getIngestStats(t, "http://"+httpAddr).Window
		if got.Events != want.Events || got.Senders != want.Senders {
			t.Errorf("reboot %d: window holds %d events from %d senders, want %d from %d",
				boot, got.Events, got.Senders, want.Events, want.Senders)
		}
		cancel()
		if err := <-runErr; err != nil {
			t.Fatalf("reboot %d: %v", boot, err)
		}
	}
}

// TestWALReplayQuarantineBudget: a CRC-intact record whose payload is not
// an event goes through the shared quarantine budget, and the accounting
// still closes: parsed = replayed + quarantined.
func TestWALReplayQuarantineBudget(t *testing.T) {
	dir := t.TempDir()
	o := walOpts(dir)
	o.maxErr = 2

	log, err := wal.Open(o.wal, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range walTrace(3, 1).Events {
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a validly framed garbage record by hand.
	f, err := os.OpenFile(newestSegment(t, o.wal), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("not an event, but the frame is fine")
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := f.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, _, _, runErr := startLive(t, ctx, o)
	st := getIngestWAL(t, "http://"+httpAddr)
	if st.WAL == nil || st.WAL.Replayed != 3 || st.WAL.ReplayQuarantined != 1 {
		t.Fatalf("replayed/quarantined = %+v, want 3/1", st.WAL)
	}
	if st.Parse.Read != 3 || st.Parse.Skipped != 1 {
		t.Errorf("parse accounting: read %d skipped %d, want 3 and 1", st.Parse.Read, st.Parse.Skipped)
	}
	if st.Window.Events != 3 {
		t.Errorf("window holds %d events, want 3", st.Window.Events)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
}

// TestWALDegradedReason: a WAL whose fsync barrier fails keeps the daemon
// serving — events still reach the window — but /healthz/ready must list
// wal_degraded, name-sorted with the other active causes.
func TestWALDegradedReason(t *testing.T) {
	dir := t.TempDir()
	o := walOpts(dir)
	o.ingestStall = 200 * time.Millisecond // trip a second cause alongside
	o.walWrap = func(w wal.SyncWriter) wal.SyncWriter {
		return faultio.ErrSyncAfter(w, 0, errors.New("injected EIO"))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, ingestAddr, readyCh, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr
	streamTrace(t, ingestAddr, walTrace(120, 1))
	select {
	case <-readyCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon never became ready")
	}

	waitFor(t, "events applied despite failing WAL", func() bool {
		return getIngestStats(t, base).Accepted == 120
	})
	if st := getIngestStats(t, base); st.LogFailed == 0 {
		t.Fatalf("LogFailed = 0 with a failing fsync barrier: %+v", st)
	}
	waitFor(t, "degraded reasons", func() bool {
		body := readyBody(t, base)
		return hasReason(body, "wal_degraded") && hasReason(body, "ingest_stalled")
	})
	body := readyBody(t, base)
	if body["status"] != "degraded" {
		t.Errorf("status = %v, want degraded", body["status"])
	}
	list, _ := body["degraded_reasons"].([]any)
	names := make([]string, len(list))
	for i, r := range list {
		names[i] = fmt.Sprint(r)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("degraded_reasons not name-sorted: %v", names)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
}

// TestWALCompactionBoundedByWindowAge: segments whose newest event has
// aged past the window's hard age cap are deleted as the daemon runs, so
// the on-disk WAL tracks the window instead of growing forever.
func TestWALCompactionBoundedByWindowAge(t *testing.T) {
	dir := t.TempDir()
	o := walOpts(dir)
	o.walSeg = 256                  // rotate every handful of records
	o.ingestAge = 100 * time.Second // window age cap = compaction horizon

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, ingestAddr, _, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr

	// Stream in chunks so each lands in its own commit (and can rotate);
	// ts advances 10s per event, sweeping far past the 100s age cap.
	tr := walTrace(200, 10)
	for chunk := 0; chunk < 10; chunk++ {
		sub := trace.New(append([]trace.Event(nil), tr.Events[chunk*20:(chunk+1)*20]...))
		streamTrace(t, ingestAddr, sub)
		want := int64((chunk + 1) * 20)
		waitFor(t, "chunk accepted", func() bool { return getIngestStats(t, base).Accepted == want })
	}

	st := getIngestWAL(t, base)
	if st.WAL == nil || st.WAL.Rotations == 0 {
		t.Fatalf("no rotations with 256-byte segments: %+v", st.WAL)
	}
	if st.WAL.Compacted == 0 {
		t.Fatalf("no compaction despite events aged past the window cap: %+v", st.WAL)
	}
	segs, err := filepath.Glob(filepath.Join(o.wal, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > int(st.WAL.Rotations) {
		t.Errorf("on-disk WAL unbounded: %d segments after %d rotations and %d compactions",
			len(segs), st.WAL.Rotations, st.WAL.Compacted)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
}

// TestWALCompactionKeepsHeldLateArrival: compaction deletes only what no
// reboot needs. A seed event (seeds bypass the WAL) is the window's head at
// Ts 1000 under a 100 s age bound; a late Ts 500 arrives behind it, is
// sealed alone in its own segment, and stays in the window — the age bound
// evicts from the head only. Ts 1001 then forces another rotation. After a
// kill -9, the reboot's window must hold all three events again: the
// segment holding 500 survived both rotations though its newest event is
// below newest − MaxAge. The daemon runs in a child copy of the test binary
// so that it can be killed.
func TestWALCompactionKeepsHeldLateArrival(t *testing.T) {
	const child = "DARKVECD_TEST_WAL_LATE_ARRIVAL_DIR"
	lateOpts := func(dir string) options {
		o := walOpts(dir)
		o.in = filepath.Join(dir, "seed.csv")
		o.ingestAge = 100 * time.Second
		o.walSeg = 1 // every commit seals its segment
		return o
	}
	if dir := os.Getenv(child); dir != "" {
		o := lateOpts(dir)
		o.onListen = func(addr string) { fmt.Printf("http %s\n", addr) }
		o.onIngestListen = func(addr string) { fmt.Printf("ingest %s\n", addr) }
		err := run(context.Background(), o)
		t.Fatalf("the daemon returned before it was killed: %v", err)
	}

	dir := t.TempDir()
	event := func(ts int64) trace.Event {
		return trace.Event{Ts: ts, Src: netutil.IPv4(0x0a000001), Dst: netutil.IPv4(0xc0a80001), Port: 23, Proto: packet.IPProtocolTCP}
	}
	f, err := os.Create(filepath.Join(dir, "seed.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.New([]trace.Event{event(1000)}).WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestWALCompactionKeepsHeldLateArrival$")
	cmd.Env = append(os.Environ(), child+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrs := make(chan [2]string, 1)
	drained := make(chan struct{})
	killed := false
	kill := func() {
		if !killed {
			killed = true
			cmd.Process.Kill() // SIGKILL on unix: no drain, no close
			<-drained          // Wait closes the pipe: read it to EOF first
			cmd.Wait()
		}
	}
	t.Cleanup(kill)
	go func() {
		defer close(drained)
		var a [2]string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "http "); ok {
				a[0] = v
			} else if v, ok := strings.CutPrefix(sc.Text(), "ingest "); ok {
				a[1] = v
			}
			if a[0] != "" && a[1] != "" {
				addrs <- a
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	var a [2]string
	select {
	case a = <-addrs:
	case <-time.After(30 * time.Second):
		t.Fatal("the child daemon never bound its listeners")
	}
	base := "http://" + a[0]

	for i, ts := range []int64{500, 1001} {
		streamTrace(t, a[1], trace.New([]trace.Event{event(ts)}))
		waitFor(t, fmt.Sprintf("Ts %d accepted", ts), func() bool { return getIngestStats(t, base).Accepted == int64(i+1) })
	}
	st := getIngestWAL(t, base)
	if st.Window.Events != 3 || st.WAL == nil || st.WAL.Rotations < 2 {
		t.Fatalf("test premise: the window holds all three events and each live one sealed its own segment: window %+v, wal %+v", st.Window, st.WAL)
	}
	kill()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, _, _, runErr := startLive(t, ctx, lateOpts(dir))
	st = getIngestWAL(t, "http://"+httpAddr)
	if st.Window.Events != 3 || st.WAL == nil || st.WAL.Replayed != 2 {
		t.Errorf("rebuilt window holds %d events (wal %+v); want the seed and both live events, 500 included", st.Window.Events, st.WAL)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
}

func TestValidateWALFlags(t *testing.T) {
	good := walOpts(t.TempDir())
	if err := good.validate(); err != nil {
		t.Fatalf("valid WAL options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"wal without live source", func(o *options) { o.ingest, o.follow, o.in = "", "", "t.csv" }},
		{"bad fsync policy", func(o *options) { o.walFsync = "fsync" }},
		{"negative segment size", func(o *options) { o.walSeg = -1 }},
	}
	for _, tc := range cases {
		o := walOpts(t.TempDir())
		tc.mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate accepted", tc.name)
		}
	}
}

// TestWALAndWireQuarantineFullVantageTable: once the process-wide vantage
// table is full, a record carrying one more distinct tag is malformed on
// both paths into the window — the WAL replay hook and the wire parser —
// and both charge the one shared -maxerr budget; events tagged with an
// admitted name, or with none, still flow. The table cannot be emptied, so
// the scenario runs in a child copy of the test binary.
func TestWALAndWireQuarantineFullVantageTable(t *testing.T) {
	const child = "DARKVECD_TEST_FULL_VANTAGE_TABLE"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWALAndWireQuarantineFullVantageTable$", "-test.v")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child test process: %v\n%s", err, out)
		}
		return
	}
	for i := 1; i < 1<<16; i++ {
		if _, err := trace.InternVantage(fmt.Sprintf("t%05d", i)); err != nil {
			t.Fatalf("filling the table, name %d: %v", i, err)
		}
	}

	dir := t.TempDir()
	o := walOpts(dir)
	o.maxErr = 2
	// Three admitted-tag events logged the normal way, then one framed by
	// hand whose tag no id can name: an untagged record's zero tag length
	// replaced by the tag itself.
	log, err := wal.Open(o.wal, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := walTrace(3, 1).Events
	for _, e := range events {
		e.Vantage = trace.MustVantage("t00042")
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	payload := events[0].AppendBinary(nil)
	payload = append(payload[:len(payload)-1], byte(len("one-too-many")))
	payload = append(payload, "one-too-many"...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(newestSegment(t, o.wal), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, ingestAddr, _, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr
	st := getIngestWAL(t, base)
	if st.WAL == nil || st.WAL.Replayed != 3 || st.WAL.ReplayQuarantined != 1 || st.Parse.Skipped != 1 {
		t.Fatalf("after replay: wal %+v, parse skipped %d; want 3 replayed, 1 quarantined, 1 skipped", st.WAL, st.Parse.Skipped)
	}

	conn, err := net.Dial("tcp", ingestAddr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "1700000010,10.0.0.1,192.168.0.1,23,tcp,0,another-too-many\n")
	fmt.Fprintf(conn, "1700000011,10.0.0.1,192.168.0.1,23,tcp,0,t65535\n")
	fmt.Fprintf(conn, "1700000012,10.0.0.1,192.168.0.1,23,tcp,0\n")
	conn.Close()
	waitFor(t, "two wire events accepted", func() bool { return getIngestStats(t, base).Accepted == 2 })
	st = getIngestWAL(t, base)
	if st.Parse.Skipped != 2 || st.Parse.Read != 5 || st.Window.Events != 5 {
		t.Errorf("after the wire lines: read %d, skipped %d, window %d; want 5, 2 (the shared budget, spent), 5",
			st.Parse.Read, st.Parse.Skipped, st.Window.Events)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
}
