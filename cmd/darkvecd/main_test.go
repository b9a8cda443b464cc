package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/trace"
)

// baseOpts is a fast, valid configuration for tests.
func baseOpts(in string) options {
	var o options
	o.in = in
	o.listen = "127.0.0.1:0"
	o.dim = 8
	o.window = 4
	o.epochs = 1
	o.kPrime = 3
	o.evalDays = 1
	o.seed = 1
	o.drain = 5 * time.Second
	o.logf = func(string, ...any) {}
	return o
}

// writeTestTrace materialises a small simulated trace CSV.
func writeTestTrace(t *testing.T, dir string) (string, *trace.Trace) {
	t.Helper()
	out := darksim.Generate(darksim.Config{Seed: 3, Days: 2, Scale: 0.005, Rate: 0.05})
	path := filepath.Join(dir, "t.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Trace.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, out.Trace
}

func TestValidateFlags(t *testing.T) {
	good := baseOpts("trace.csv")
	if err := good.validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"missing in", func(o *options) { o.in = "" }},
		{"zero dim", func(o *options) { o.dim = 0 }},
		{"negative dim", func(o *options) { o.dim = -8 }},
		{"zero window", func(o *options) { o.window = 0 }},
		{"zero epochs", func(o *options) { o.epochs = 0 }},
		{"zero kprime", func(o *options) { o.kPrime = 0 }},
		{"zero evaldays", func(o *options) { o.evalDays = 0 }},
		{"negative maxerr", func(o *options) { o.maxErr = -1 }},
		{"listen no port", func(o *options) { o.listen = "127.0.0.1" }},
		{"listen bad port", func(o *options) { o.listen = "127.0.0.1:99999" }},
		{"listen bad host", func(o *options) { o.listen = "256.0.0.1:8080" }},
	}
	for _, tc := range cases {
		o := baseOpts("trace.csv")
		tc.mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate() accepted %+v", tc.name, o)
		}
	}
}

// TestFlagsDocumented: every registered flag is named (as `-name`) in
// README.md, and the restart/selection flags the store, the WAL and
// -annmin replaced — and the index geometry/precision knobs nothing set —
// stay gone.
func TestFlagsDocumented(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	fs := flag.NewFlagSet("darkvecd", flag.ContinueOnError)
	new(options).register(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(readme, "`-"+f.Name+"`") {
			t.Errorf("flag -%s is not documented in README.md", f.Name)
		}
	})
	for _, name := range []string{"flush", "checkpoint", "resume", "ann", "annquant", "anncells", "annprobe", "ingestminpkts"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s is registered again", name)
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, baseOpts("/missing.csv")); err == nil {
		t.Fatal("missing trace must fail")
	}
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.csv")
	if err := os.WriteFile(junk, []byte("nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, baseOpts(junk)); err == nil {
		t.Fatal("junk trace must fail")
	}
	tracePath, _ := writeTestTrace(t, dir)
	o := baseOpts(tracePath)
	o.feedsDir = "/missing-feeds"
	if err := run(ctx, o); err == nil {
		t.Fatal("missing feeds dir must fail")
	}
	// A bogus listen address fails validation before any training happens.
	o = baseOpts(tracePath)
	o.listen = "256.0.0.1:99999"
	start := time.Now()
	if err := run(ctx, o); err == nil {
		t.Fatal("bad listen address must fail")
	} else if !strings.Contains(err.Error(), "-listen") {
		t.Fatalf("bad listen error = %v, want flag validation", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("bad listen address must fail fast, not after training")
	}
}

// TestServeLifecycle exercises the whole daemon under -race: liveness
// before readiness, the readiness flip once training lands, a storm of
// concurrent requests, and a SIGTERM-equivalent graceful drain where every
// accepted request completes.
func TestServeLifecycle(t *testing.T) {
	tracePath, _ := writeTestTrace(t, t.TempDir())
	o := baseOpts(tracePath)
	listenCh := make(chan string, 1)
	readyCh := make(chan string, 1)

	get := func(url string) (int, error) {
		resp, err := http.Get(url)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// onListen runs after the bind but before training starts, so these
	// probes deterministically see the warming-up state: live, not ready,
	// API gated with 503.
	o.onListen = func(addr string) {
		base := "http://" + addr
		if code, err := get(base + "/healthz/live"); err != nil || code != http.StatusOK {
			t.Errorf("liveness during training = %d, %v", code, err)
		}
		if code, err := get(base + "/healthz/ready"); err != nil || code != http.StatusServiceUnavailable {
			t.Errorf("readiness during training = %d, %v (want 503)", code, err)
		}
		if code, err := get(base + "/v1/stats"); err != nil || code != http.StatusServiceUnavailable {
			t.Errorf("gated API during training = %d, %v (want 503)", code, err)
		}
		listenCh <- addr
	}
	o.onReady = func(addr string) { readyCh <- addr }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, o) }()

	base := "http://" + <-listenCh

	select {
	case <-readyCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon never became ready")
	}
	if code, err := get(base + "/healthz/ready"); err != nil || code != http.StatusOK {
		t.Fatalf("readiness after training = %d, %v", code, err)
	}
	if code, err := get(base + "/v1/stats"); err != nil || code != http.StatusOK {
		t.Fatalf("API after ready = %d, %v", code, err)
	}

	// Storm the API concurrently, then pull the plug mid-storm. Completed
	// responses must all be 200; transport errors are legal only once
	// shutdown has begun (new connections refused), never as a dropped
	// in-flight request before it.
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				code, err := get(base + "/v1/stats")
				if err != nil {
					if !cancelled.Load() {
						errs <- fmt.Errorf("request failed before shutdown: %v", err)
					}
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("mid-storm status %d", code)
					return
				}
				if cancelled.Load() && j > 2 {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	cancelled.Store(true)
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
}

// TestSigtermDuringTraining: cancellation mid-train exits gracefully and
// leaves nothing behind — the next boot depends on no file from this one.
func TestSigtermDuringTraining(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)
	o := baseOpts(tracePath)
	o.epochs = 500 // long enough that the cancel lands mid-run

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var interrupted atomic.Bool
	o.logf = func(format string, _ ...any) {
		switch {
		case strings.HasPrefix(format, "training on"):
			// The trainer starts right after this line and needs seconds
			// for 500 epochs; the cancel lands a few epochs in.
			time.AfterFunc(100*time.Millisecond, cancel)
		case format == "training interrupted":
			interrupted.Store(true)
		}
	}
	o.onReady = func(string) { t.Error("interrupted daemon became ready") }
	if err := run(ctx, o); err != nil {
		t.Fatalf("interrupted run = %v, want graceful nil", err)
	}
	if !interrupted.Load() {
		t.Fatal("run returned without reporting the interrupted training")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(tracePath) {
		t.Fatalf("interrupted boot left files behind: %v", entries)
	}
}

// TestRunTolerantIngest: a trace with injected garbage rows is rejected in
// strict mode but served under a -maxerr budget. The file is read once, when
// it seeds the window, so the budget report is logged once however many
// cycles train on it.
func TestRunTolerantIngest(t *testing.T) {
	dir := t.TempDir()
	cleanPath, tr := writeTestTrace(t, dir)
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(clean), "\n")
	mid := len(lines) / 2
	dirty := strings.Join(lines[:mid], "") +
		"garbage,row\nnot,even,close,to,a,record,at,all\n" +
		strings.Join(lines[mid:], "")
	dirtyPath := filepath.Join(dir, "dirty.csv")
	if err := os.WriteFile(dirtyPath, []byte(dirty), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(context.Background(), baseOpts(dirtyPath)); err == nil {
		t.Fatal("strict mode must reject the dirty trace")
	}

	o := baseOpts(dirtyPath)
	o.maxErr = 10
	o.store = filepath.Join(dir, "store")
	o.retrain = 10 * time.Millisecond
	var mu sync.Mutex
	var reports []string
	cycles := 0
	o.logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if s := fmt.Sprintf(format, args...); strings.Contains(s, "skipped") {
			reports = append(reports, s)
		}
		if strings.HasPrefix(format, "training on") {
			cycles++
		}
	}
	retrained := make(chan struct{}, 1)
	o.onRetrain = func(err error) {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("retrain on the tolerated trace: %v", err)
		}
		select {
		case retrained <- struct{}{}:
		default:
		}
	}
	_, cancel, runErr := startDaemon(t, o)
	for i := 0; i < 2; i++ {
		select {
		case <-retrained:
		case <-time.After(2 * time.Minute):
			t.Fatal("no retrain cycle on the tolerated trace")
		}
	}
	stopDaemon(t, cancel, runErr)
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != 1 || cycles < 3 {
		t.Fatalf("%d ingest reports over %d cycles, want one (the seed read) under boot + >= 2 retrains", len(reports), cycles)
	}
	for _, r := range reports {
		if !strings.Contains(r, "2 skipped") {
			t.Fatalf("ingest report wrong: %q (trace len %d)", r, tr.Len())
		}
	}
}
