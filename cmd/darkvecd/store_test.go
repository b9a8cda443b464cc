package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/modelstore"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/robust/faultio"
	"github.com/darkvec/darkvec/internal/trace"
)

// seedStore trains a tiny model (same knobs as baseOpts) and publishes it
// as the store's first generation, simulating a previous daemon run.
func seedStore(t *testing.T, storeDir string, tr *trace.Trace) modelstore.Version {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.W2V.Dim = 8
	cfg.W2V.Window = 4
	cfg.W2V.Epochs = 1
	cfg.W2V.Seed = 1
	emb, err := core.TrainEmbedding(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := modelstore.Open(storeDir, modelstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Publish(func(w io.Writer) error { return emb.Model.Save(w) })
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// getFull fetches a URL and returns status, headers and body.
func getFull(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func startDaemon(t *testing.T, o options) (base string, cancel context.CancelFunc, runErr chan error) {
	t.Helper()
	readyCh := make(chan string, 1)
	prevReady := o.onReady
	o.onReady = func(addr string) {
		if prevReady != nil {
			prevReady(addr)
		}
		readyCh <- addr
	}
	ctx, cancelFn := context.WithCancel(context.Background())
	runErr = make(chan error, 1)
	go func() { runErr <- run(ctx, o) }()
	select {
	case addr := <-readyCh:
		return "http://" + addr, cancelFn, runErr
	case err := <-runErr:
		cancelFn()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		cancelFn()
		t.Fatal("daemon never became ready")
	}
	return "", cancelFn, runErr
}

func stopDaemon(t *testing.T, cancel context.CancelFunc, runErr chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon shutdown = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// TestBootFromStore is the kill -9 recovery guarantee: a store whose
// newest artifact is garbage (a publish torn apart by a crash or a bad
// disk) boots the daemon on the previous intact generation, without
// retraining, and quarantines the corrupt one.
func TestBootFromStore(t *testing.T) {
	dir := t.TempDir()
	tracePath, tr := writeTestTrace(t, dir)
	storeDir := filepath.Join(dir, "store")
	v1 := seedStore(t, storeDir, tr)

	// A corrupt newer generation, as a crashed-then-corrupted disk would
	// leave it: framed like an artifact name but unreadable.
	garbage := filepath.Join(storeDir, "v000002.model")
	if err := os.WriteFile(garbage, []byte("definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	o := baseOpts(tracePath)
	o.store = storeDir
	var booted atomic.Bool
	o.logf = func(format string, args ...any) {
		if strings.Contains(format, "booted from store") {
			booted.Store(true)
		}
	}
	base, cancel, runErr := startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)

	if !booted.Load() {
		t.Error("daemon trained instead of booting from the store")
	}
	code, hdr, body := getFull(t, base+"/healthz/ready")
	if code != http.StatusOK {
		t.Fatalf("ready = %d, body %s", code, body)
	}
	var ready map[string]any
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready["status"] != "ready" || ready["model_version"] != v1.String() {
		t.Fatalf("ready body = %v", ready)
	}
	code, hdr, _ = getFull(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if got := hdr.Get("X-DarkVec-Model-Version"); got != v1.String() {
		t.Fatalf("version header = %q, want %q", got, v1)
	}
	if hdr.Get("X-DarkVec-Model-Stale") != "" {
		t.Fatal("freshly booted daemon marked stale")
	}
	if _, err := os.Stat(garbage + ".corrupt"); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	if _, err := os.Stat(garbage); !os.IsNotExist(err) {
		t.Fatal("corrupt artifact still live in the store")
	}
}

// fastSleep keeps supervisor backoff out of wall-clock time in tests.
func fastSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// TestRetrainSwapAndRollback drives a full degradation-and-recovery arc:
// retrains that publish corrupt artifacts must leave the old generation
// serving (stale header, degraded readiness, version unchanged), and once
// the fault clears a retrain swaps a new generation in and the degraded
// markers disappear.
func TestRetrainSwapAndRollback(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)
	storeDir := filepath.Join(dir, "store")

	var corrupt atomic.Bool
	o := baseOpts(tracePath)
	o.store = storeDir
	o.retrain = 20 * time.Millisecond
	o.retrainFail = 100000 // breaker must not trip in this test
	o.retrainSleep = fastSleep
	o.retrainBackoff = robust.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	o.trainWrap = func(w io.Writer) io.Writer {
		if corrupt.Load() {
			// Damage a byte past the w2v header on its way into the store:
			// the store's outer checksum seals the damaged bytes (so the
			// frame is "intact"), only the model's inner checksum can tell.
			return faultio.CorruptWriter(w, 64, 0x80)
		}
		return w
	}
	base, cancel, runErr := startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)

	_, hdr, _ := getFull(t, base+"/v1/stats")
	v1 := hdr.Get("X-DarkVec-Model-Version")
	if v1 == "" {
		t.Fatal("managed daemon serving without a version header")
	}

	// Phase 1: break publishing. The daemon must degrade, not regress.
	corrupt.Store(true)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("daemon never reported a degraded retrain")
		}
		code, hdr, _ := getFull(t, base+"/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("stats during degraded retrain = %d — old model must keep serving", code)
		}
		if got := hdr.Get("X-DarkVec-Model-Version"); got != v1 {
			t.Fatalf("version advanced to %q while every publish was corrupt", got)
		}
		if hdr.Get("X-DarkVec-Model-Stale") == "true" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, _, body := getFull(t, base+"/healthz/ready")
	var ready map[string]any
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready["status"] != "degraded" || ready["stale"] != true {
		t.Fatalf("degraded ready body = %v", ready)
	}
	if e, _ := ready["last_error"].(string); !strings.Contains(e, "failed verification") {
		t.Fatalf("last_error = %q", ready["last_error"])
	}

	// The corrupt publishes must be quarantined, not serving.
	matches, err := filepath.Glob(filepath.Join(storeDir, "*.corrupt"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no quarantined artifacts after corrupt publishes: %v %v", matches, err)
	}

	// Phase 2: clear the fault. A retrain must succeed, bump the version
	// and drop the degraded markers.
	corrupt.Store(false)
	for {
		if time.Now().After(deadline) {
			t.Fatal("daemon never recovered after the fault cleared")
		}
		code, hdr, _ := getFull(t, base+"/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("stats during recovery = %d", code)
		}
		got := hdr.Get("X-DarkVec-Model-Version")
		if got != v1 && hdr.Get("X-DarkVec-Model-Stale") == "" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, _, body = getFull(t, base+"/healthz/ready")
	ready = nil
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready["status"] != "ready" {
		t.Fatalf("recovered ready body = %v", ready)
	}
}

// TestRetrainBreakerGivesUp: persistent retrain failure trips the circuit
// breaker after -retrainfail consecutive failures; later cycles refuse to
// churn (ErrGiveUp) while the last-good model keeps serving.
func TestRetrainBreakerGivesUp(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)

	o := baseOpts(tracePath)
	o.store = filepath.Join(dir, "store")
	o.retrain = 10 * time.Millisecond
	o.retrainFail = 2
	o.retrainSleep = fastSleep
	o.retrainBackoff = robust.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	o.trainWrap = func(w io.Writer) io.Writer {
		return faultio.CorruptWriter(w, 64, 0x80) // every publish corrupt
	}
	outcomes := make(chan error, 16)
	o.onRetrain = func(err error) {
		select {
		case outcomes <- err:
		default:
		}
	}
	base, cancel, runErr := startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)

	for i := 0; i < 2; i++ {
		select {
		case err := <-outcomes:
			if !errors.Is(err, robust.ErrGiveUp) {
				t.Fatalf("retrain outcome %d = %v, want ErrGiveUp", i, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("breaker never gave up")
		}
	}
	// Given up, but not down: the last-good model still serves.
	code, hdr, _ := getFull(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats after give-up = %d", code)
	}
	if hdr.Get("X-DarkVec-Model-Stale") != "true" {
		t.Fatal("given-up daemon not marked stale")
	}
}

func TestValidateStoreFlags(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"negative retrain", func(o *options) { o.retrain = -time.Second }},
		{"negative keep", func(o *options) { o.store = "s"; o.keep = -1 }},
		{"negative retrainfail", func(o *options) { o.retrainFail = -1 }},
	}
	for _, tc := range cases {
		o := baseOpts("trace.csv")
		tc.mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate() accepted %+v", tc.name, o)
		}
	}
	good := baseOpts("trace.csv")
	good.store = "s"
	good.retrain = time.Hour
	if err := good.validate(); err != nil {
		t.Fatalf("valid store options rejected: %v", err)
	}
	// Without a store, retrained generations swap in memory.
	good.store = ""
	if err := good.validate(); err != nil {
		t.Fatalf("storeless retrain rejected: %v", err)
	}
}
