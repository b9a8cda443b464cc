package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
)

// TestServedGenerationDropsItsCut: a served generation keeps a copy of its
// /v1/stats, not the window cut they were read from, so a cycle's trainable
// copy is garbage once the cycle ends. Two generations are served the way
// cycle serves them; with the second on the air, both cuts' trainable
// traces must be collectable, and /v1/stats still answers the second cut's
// summary.
func TestServedGenerationDropsItsCut(t *testing.T) {
	o := baseOpts("")
	cfg := core.DefaultConfig()
	cfg.W2V.Dim, cfg.W2V.Window, cfg.W2V.Epochs, cfg.W2V.Seed = o.dim, o.window, o.epochs, o.seed
	d := &daemon{o: o, cfg: cfg, gate: robust.NewGate()}
	w := stream.NewWindow(stream.WindowConfig{MaxEvents: 1 << 16, MaxAge: -1})
	w.AddBatch(darksim.Generate(darksim.Config{Seed: 3, Days: 2, Scale: 0.005, Rate: 0.05}).Trace.Events)

	serveCut := func(collected chan struct{}) trace.Stats {
		cut := w.Cut(1, d.cfg.MinPackets)
		runtime.SetFinalizer(cut.Trainable, func(*trace.Trace) { close(collected) })
		tr := cut.Trainable
		g, err := core.Generate(tr, cut.LastDays(o.evalDays), labels.Build(tr, nil), d.cfg, core.TrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		d.serve(g, &cut.Stats, 0, nil)
		return cut.Stats
	}
	first, second := make(chan struct{}), make(chan struct{})
	serveCut(first)
	want := serveCut(second)
	for _, c := range []struct {
		name      string
		collected chan struct{}
	}{{"replaced", first}, {"serving", second}} {
		deadline := time.Now().Add(5 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-c.collected:
				done = true
			case <-time.After(10 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("the %s generation's cut is still reachable", c.name)
				}
			}
		}
	}

	rec := httptest.NewRecorder()
	d.gate.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var got trace.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d %s (%v)", rec.Code, rec.Body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/stats = %+v, want the served cut's %+v", got, want)
	}
}
