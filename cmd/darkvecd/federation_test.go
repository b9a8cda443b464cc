package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/federation"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/stream"
)

// degradedDaemon assembles a daemon in the worst overlapping degradation:
// last retrain drift-rejected AND the live feed stalled.
func degradedDaemon(t *testing.T) *daemon {
	t.Helper()
	d := &daemon{o: options{testHooks: testHooks{logf: func(string, ...any) {}}}, gate: robust.NewGate()}
	d.gate.Set(http.NotFoundHandler()) // any handler: makes the gate "ready"
	d.status.lastErr.Store("candidate rejected")
	d.status.stale.Store(true)
	d.status.driftReject.Store(true)
	d.ing = stream.New(stream.Config{StallAfter: time.Nanosecond})
	t.Cleanup(func() { d.ing.Close() })
	deadline := time.Now().Add(2 * time.Second)
	for !d.ing.Stalled() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never tripped")
		}
		time.Sleep(time.Millisecond)
	}
	return d
}

// TestDegradedReasonsSortedByCause pins the ordering contract: however the
// causes accumulate at runtime, /healthz/ready lists degraded_reasons
// sorted by cause name. (The natural accumulation order is drift_rejected,
// stale_model, ingest_stalled — this test exists to catch anyone restoring
// that accidental ordering.)
func TestDegradedReasonsSortedByCause(t *testing.T) {
	d := degradedDaemon(t)
	rec := httptest.NewRecorder()
	d.handleReady(rec, httptest.NewRequest(http.MethodGet, "/healthz/ready", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ready -> %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	raw, _ := body["degraded_reasons"].([]any)
	var reasons []string
	for _, r := range raw {
		reasons = append(reasons, r.(string))
	}
	want := []string{"drift_rejected", "ingest_stalled", "stale_model"}
	if !reflect.DeepEqual(reasons, want) {
		t.Fatalf("degraded_reasons = %v, want %v (sorted by cause)", reasons, want)
	}
	if !sort.StringsAreSorted(reasons) {
		t.Fatalf("degraded_reasons not sorted: %v", reasons)
	}
}

// TestStaleReasonHeaderSortedByCause pins the same contract on the
// "; "-joined stale-reason header: details appear in cause-name order —
// drift_rejected before ingest_stalled, ingest_stalled before stale_model.
func TestStaleReasonHeaderSortedByCause(t *testing.T) {
	d := degradedDaemon(t)
	ok, reason := d.stale()
	if !ok {
		t.Fatal("degraded daemon reports not stale")
	}
	parts := strings.Split(reason, "; ")
	if len(parts) != 2 {
		t.Fatalf("stale reason = %q, want two '; '-joined details", reason)
	}
	if !strings.Contains(parts[0], "drift") || !strings.Contains(parts[1], "silent") {
		t.Fatalf("stale reason order = %q, want drift_rejected detail before ingest_stalled detail", reason)
	}

	// The non-drift branch: ingest_stalled sorts before stale_model.
	d.status.driftReject.Store(false)
	_, reason = d.stale()
	parts = strings.Split(reason, "; ")
	if len(parts) != 2 || !strings.Contains(parts[0], "silent") || !strings.Contains(parts[1], "retrain failed") {
		t.Fatalf("stale reason order = %q, want ingest_stalled detail before stale_model detail", reason)
	}
}

// TestInternExportEndToEnd boots a full daemon (static trace, model store)
// and exercises /v1/intern: the export is vantage-stamped, carries the
// serving generation, pages correctly, and covers the senders the model
// serves.
func TestInternExportEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in, tr := writeTestTrace(t, dir)
	o := baseOpts(in)
	o.vantage = "north"
	o.store = dir + "/store"
	readyCh := make(chan string, 1)
	o.onReady = func(addr string) { readyCh <- addr }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, o) }()

	var base string
	select {
	case addr := <-readyCh:
		base = "http://" + addr
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon never became ready")
	}

	fetch := func(path string) federation.InternPage {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s -> %d", path, resp.StatusCode)
		}
		var page federation.InternPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	page := fetch("/v1/intern")
	if page.Vantage != "north" || page.Epoch == "" {
		t.Fatalf("export identity = %+v", page)
	}
	if page.Generation != "v000001" {
		t.Fatalf("generation = %q, want v000001 (the published boot model)", page.Generation)
	}
	if page.Total == 0 || len(page.Senders) != page.Total {
		t.Fatalf("export holds %d/%d senders", len(page.Senders), page.Total)
	}
	// The export is the training id space: a subset of the trace's sources
	// (the corpus builder interns only senders that pass the active filter),
	// dense and duplicate-free.
	distinct := map[string]bool{}
	for _, e := range tr.Events {
		distinct[e.Src.String()] = true
	}
	seen := map[string]bool{}
	for _, s := range page.Senders {
		if !distinct[s] {
			t.Fatalf("exported sender %s not in the trace", s)
		}
		if seen[s] {
			t.Fatalf("exported sender %s twice", s)
		}
		seen[s] = true
	}
	// Paging tiles the same table.
	var paged []string
	for off := 0; off < page.Total; {
		p := fetch(fmt.Sprintf("/v1/intern?offset=%d&limit=7", off))
		paged = append(paged, p.Senders...)
		off += len(p.Senders)
	}
	if !reflect.DeepEqual(paged, page.Senders) {
		t.Fatalf("paged export differs from full export")
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}
