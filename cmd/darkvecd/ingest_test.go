package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
)

// liveOpts is baseOpts reconfigured as a live daemon: no input file, a TCP
// ingest listener, and a fast retrain cadence.
func liveOpts() options {
	o := baseOpts("")
	o.in = ""
	o.ingest = "127.0.0.1:0"
	o.retrain = 50 * time.Millisecond
	o.ingestMin = 50
	o.ingestStall = time.Hour // stall detection off unless a test wants it
	return o
}

// startLive boots a live daemon and returns its HTTP and ingest addresses
// plus channels for readiness and exit.
func startLive(t *testing.T, ctx context.Context, o options) (httpAddr, ingestAddr string, readyCh chan string, runErr chan error) {
	t.Helper()
	listenCh := make(chan string, 1)
	ingestCh := make(chan string, 1)
	readyCh = make(chan string, 1)
	o.onListen = func(addr string) { listenCh <- addr }
	o.onIngestListen = func(addr string) { ingestCh <- addr }
	o.onReady = func(addr string) { readyCh <- addr }
	runErr = make(chan error, 1)
	go func() { runErr <- run(ctx, o) }()
	select {
	case httpAddr = <-listenCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its HTTP listener")
	}
	select {
	case ingestAddr = <-ingestCh:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its ingest listener")
	}
	return httpAddr, ingestAddr, readyCh, runErr
}

// streamTrace firehoses a trace's events into an ingest listener over the
// CSV line protocol, header first (as `nc addr < trace.csv` would).
func streamTrace(t *testing.T, addr string, tr *trace.Trace) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	fmt.Fprintf(bw, "%s\n", trace.CSVHeaderLine)
	var buf []byte
	for _, e := range tr.Events {
		buf = append(e.AppendCSV(buf[:0]), '\n')
		if _, err := bw.Write(buf); err != nil {
			t.Fatalf("stream interrupted: %v", err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

func getIngestStats(t *testing.T, base string) stream.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/ingest")
	if err != nil {
		t.Fatalf("/v1/ingest: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/ingest status = %d", resp.StatusCode)
	}
	var st stream.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/v1/ingest decode: %v", err)
	}
	return st
}

func TestValidateLiveFlags(t *testing.T) {
	good := liveOpts()
	if err := good.validate(); err != nil {
		t.Fatalf("valid live options rejected: %v", err)
	}
	// Live retraining does not demand a model store.
	if good.store != "" {
		t.Fatal("test premise: liveOpts must be storeless")
	}
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"live without retrain", func(o *options) { o.retrain = 0 }},
		{"bad policy", func(o *options) { o.ingestPolicy = "newest-first" }},
		{"negative cap", func(o *options) { o.ingestCap = -1 }},
		{"cap above int32", func(o *options) { o.ingestCap = math.MaxInt32; o.ingestCap++ }},
		{"negative queue", func(o *options) { o.ingestQueue = -1 }},
		{"negative ingestmin", func(o *options) { o.ingestMin = -1 }},
		{"negative rate", func(o *options) { o.ingestRate = -1 }},
	}
	for _, tc := range cases {
		o := liveOpts()
		tc.mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate() accepted %+v", tc.name, o)
		}
	}
	// No input and no live source is still an error.
	o := liveOpts()
	o.ingest = ""
	if err := o.validate(); err == nil {
		t.Error("no -in and no live source accepted")
	}
}

// TestLiveIngestLifecycle boots a storeless live daemon on an empty window,
// feeds it a synthetic day over TCP, and watches the whole arc: deferred
// first training, readiness once the window fills, accurate /v1/ingest
// accounting, and a graceful SIGTERM drain. (What a restart brings back is
// TestLiveRestartKeepsWindowOnce.)
func TestLiveIngestLifecycle(t *testing.T) {
	o := liveOpts()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, ingestAddr, readyCh, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr

	// Before any events: alive, not ready, but ingest accounting answers.
	if resp, err := http.Get(base + "/healthz/ready"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readiness on empty window: %v, %v (want 503)", resp, err)
	} else {
		resp.Body.Close()
	}
	if st := getIngestStats(t, base); st.Accepted != 0 || st.Window.Events != 0 {
		t.Fatalf("fresh daemon ingest stats = %+v, want zeros", st)
	}

	res := darksim.Generate(darksim.Config{Seed: 3, Days: 1, Scale: 0.005, Rate: 0.05})
	streamTrace(t, ingestAddr, res.Trace)

	select {
	case <-readyCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("live daemon never became ready")
	}
	if resp, err := http.Get(base + "/v1/stats"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats after live training: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Every streamed event must eventually be parsed and accepted: no
	// hidden losses on the happy path.
	want := int64(res.Trace.Len())
	deadline := time.Now().Add(30 * time.Second)
	var st stream.Stats
	for time.Now().Before(deadline) {
		st = getIngestStats(t, base)
		if st.Accepted+st.DroppedNewest+st.DroppedOldest == want {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Parse.Read != want {
		t.Errorf("parse.read = %d, want %d", st.Parse.Read, want)
	}
	if got := st.Accepted + st.DroppedNewest + st.DroppedOldest; got != want {
		t.Errorf("accounting: accepted %d + dropped %d+%d = %d, want %d",
			st.Accepted, st.DroppedNewest, st.DroppedOldest, got, want)
	}
	if st.TotalConns != 1 || st.Parse.Skipped != 0 {
		t.Errorf("conns=%d skipped=%d, want 1 conn, 0 quarantined", st.TotalConns, st.Parse.Skipped)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
}

// TestLiveIngestOverloadSoak is the acceptance soak: a firehose far past
// the pipeline's capacity (small queue, rolling retrains) while HTTP
// clients hammer the API. The daemon must never drop an HTTP request, the
// window must respect its cap, the drop accounting must balance exactly,
// and the drain must leak no goroutines.
func TestLiveIngestOverloadSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tracePath, _ := writeTestTrace(t, t.TempDir())
	o := liveOpts()
	o.logf = t.Logf
	o.in = tracePath   // deterministic boot-path readiness before the flood
	o.ingestQueue = 64 // tiny hand-off queue: the overload must shed, with exact books
	o.ingestCap = 32768
	o.drain = 20 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, ingestAddr, readyCh, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr

	res := darksim.Generate(darksim.Config{Seed: 5, Days: 2, Scale: 0.01, Rate: 0.1})
	total := int64(res.Trace.Len())
	if total < 5000 {
		t.Fatalf("soak trace too small: %d events", total)
	}

	// Overload: several uncoordinated firehose writers, each streaming two
	// full days as fast as TCP accepts them — many times the queue's
	// capacity while retrains churn in the background.
	const writers = 4
	var streamWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			streamTrace(t, ingestAddr, res.Trace)
		}()
	}

	select {
	case <-readyCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon never became ready under load")
	}

	// Hammer the API for the duration of the stream: zero dropped
	// requests allowed.
	client := &http.Client{Timeout: 30 * time.Second}
	var stop atomic.Bool
	var reqs atomic.Int64
	hammerErrs := make(chan error, 64)
	var hammerWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		hammerWG.Add(1)
		go func() {
			defer hammerWG.Done()
			paths := []string{"/v1/stats", "/v1/ingest", "/healthz/ready"}
			for j := 0; !stop.Load(); j++ {
				resp, err := client.Get(base + paths[j%len(paths)])
				if err != nil {
					hammerErrs <- fmt.Errorf("dropped request: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					hammerErrs <- fmt.Errorf("%s = %d mid-soak", paths[j%len(paths)], resp.StatusCode)
					return
				}
				reqs.Add(1)
			}
		}()
	}

	streamWG.Wait()
	// Let the queue drain and its books settle, then stop the hammer. An
	// empty queue is not enough: the consumer pops a batch before it
	// counts it accepted, and a parsed line is read before it is queued or
	// dropped.
	want := writers * total
	deadline := time.Now().Add(60 * time.Second)
	var st stream.Stats
	for time.Now().Before(deadline) {
		st = getIngestStats(t, base)
		if st.Parse.Read == want && st.QueueDepth == 0 && st.Accepted+st.DroppedNewest+st.DroppedOldest == want {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	stop.Store(true)
	hammerWG.Wait()
	t.Logf("hammer done at %s", time.Now().Format("15:04:05.000"))
	close(hammerErrs)
	for err := range hammerErrs {
		t.Error(err)
	}
	if reqs.Load() == 0 {
		t.Error("hammer made no successful requests")
	}

	if st.Parse.Read != want {
		t.Errorf("parse.read = %d, want %d", st.Parse.Read, want)
	}
	if got := st.Accepted + st.DroppedNewest + st.DroppedOldest; got != want {
		t.Errorf("accounting: accepted %d + dropped %d+%d = %d, want %d",
			st.Accepted, st.DroppedNewest, st.DroppedOldest, got, want)
	}
	if st.Window.Events > o.ingestCap {
		t.Errorf("window %d exceeds -ingestcap %d", st.Window.Events, o.ingestCap)
	}

	// Retire the hammer's keep-alive connections before pulling the plug
	// so the drain only has to wait for genuinely in-flight work.
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain and exit after soak")
	}
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline+2 {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked after drain: %d -> %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestLiveIngestStallDegrades seeds a live daemon from a static trace so
// it is ready immediately, then lets the feed stay silent past the stall
// threshold: every response must carry the staleness headers and readiness
// must flip to degraded, recovering as soon as one event arrives.
func TestLiveIngestStallDegrades(t *testing.T) {
	tracePath, _ := writeTestTrace(t, t.TempDir())
	o := liveOpts()
	o.in = tracePath // seeds the window: boot-path training, instant readiness
	o.ingestStall = 300 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, ingestAddr, readyCh, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr
	select {
	case <-readyCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("seeded live daemon never became ready")
	}

	// Wait out the stall threshold with a silent feed.
	deadline := time.Now().Add(10 * time.Second)
	stalled := false
	for time.Now().Before(deadline) {
		if getIngestStats(t, base).Stalled {
			stalled = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !stalled {
		t.Fatal("silent feed never reported stalled")
	}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats while stalled = %d, want 200 (keep serving)", resp.StatusCode)
	}
	if resp.Header.Get("X-DarkVec-Model-Stale") != "true" {
		t.Error("stalled feed: response missing X-DarkVec-Model-Stale: true")
	}
	if reason := resp.Header.Get("X-DarkVec-Model-Stale-Reason"); reason == "" {
		t.Error("stalled feed: response missing staleness reason header")
	}
	var ready map[string]any
	rresp, err := http.Get(base + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if ready["status"] != "degraded" || ready["ingest_stalled"] != true {
		t.Errorf("ready while stalled = %v, want degraded with ingest_stalled", ready)
	}

	// One event clears the stall.
	conn, err := net.Dial("tcp", ingestAddr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "1700000100,9.9.9.9,10.0.0.1,23,tcp,0\n")
	conn.Close()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !getIngestStats(t, base).Stalled {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp2, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-DarkVec-Model-Stale") == "true" {
		t.Error("staleness header still set after the feed recovered")
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestLiveIngestUnixSocketAndGarbage drives the unix-socket listener with
// a dirty feed: the -maxerr budget quarantines the garbage, good lines
// land, and /v1/ingest reports both truthfully.
func TestLiveIngestUnixSocketAndGarbage(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	o := liveOpts()
	o.ingest = "unix:" + sock
	o.maxErr = 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpAddr, ingestAddr, _, runErr := startLive(t, ctx, o)
	if ingestAddr != sock {
		t.Fatalf("ingest listener at %q, want unix socket %q", ingestAddr, sock)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s\ntotal garbage\n%s\n%s\n",
		trace.CSVHeaderLine,
		"1700000000,1.2.3.4,10.0.0.1,23,tcp,0",
		"1700000001,1.2.3.5,10.0.0.1,2323,udp,0")
	conn.Close()
	base := "http://" + httpAddr
	deadline := time.Now().Add(10 * time.Second)
	var st stream.Stats
	for time.Now().Before(deadline) {
		st = getIngestStats(t, base)
		if st.Accepted == 2 && st.Parse.Skipped == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Accepted != 2 || st.Parse.Skipped != 1 {
		t.Errorf("stats = accepted %d, skipped %d; want 2 accepted, 1 quarantined", st.Accepted, st.Parse.Skipped)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
