package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
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
		cut := w.Cut(d.cfg.MinPackets)
		runtime.SetFinalizer(cut.Trainable, func(*trace.Trace) { close(collected) })
		g, err := core.Generate(cut, o.evalDays, labels.Build(cut.Trainable, nil), d.cfg, core.TrainOpts{})
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

// epochCtx is a training context that watches for a collection: the
// trainer checks its context's Err after every epoch, and each check runs
// a bounded number of collections waiting for collected to close, noting
// the first check that saw it.
type epochCtx struct {
	context.Context
	collected    chan struct{}
	checks, seen atomic.Int32
}

func (c *epochCtx) Err() error {
	n := c.checks.Add(1)
	if c.seen.Load() == 0 {
		for try := 0; try < 20; try++ {
			runtime.GC()
			select {
			case <-c.collected:
				c.seen.Store(n)
				return c.Context.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return c.Context.Err()
}

// TestGenerationLetsGoOfItsEvents: a cycle hands its cut's trainable events
// to core.Generate and keeps nothing of them, and Generate reads what its
// look needs — the corpus, the eval senders, their port tally — before it
// trains. So the cut's trace and its event array are garbage while the
// model trains: their finalizers run before the trainer's last epoch ends.
func TestGenerationLetsGoOfItsEvents(t *testing.T) {
	o := baseOpts("")
	o.epochs = 3
	cfg := core.DefaultConfig()
	cfg.W2V.Dim, cfg.W2V.Window, cfg.W2V.Epochs, cfg.W2V.Seed = o.dim, o.window, o.epochs, o.seed
	var traceGone, eventsGone atomic.Bool
	ctx := &epochCtx{Context: context.Background(), collected: make(chan struct{})}
	o.onCut = func(cut trace.Cut) {
		runtime.SetFinalizer(cut.Trainable, func(*trace.Trace) { traceGone.Store(true) })
		runtime.SetFinalizer(&cut.Trainable.Events[0], func(*trace.Event) {
			eventsGone.Store(true)
			close(ctx.collected)
		})
	}
	d := &daemon{o: o, cfg: cfg, gate: robust.NewGate()}
	d.ing = stream.New(stream.Config{Window: stream.WindowConfig{MaxEvents: 1 << 16, MaxAge: -1}})
	t.Cleanup(func() { d.ing.Close() })
	d.ing.Window().AddBatch(darksim.Generate(darksim.Config{Seed: 3, Days: 2, Scale: 0.005, Rate: 0.05}).Trace.Events)

	if err := d.cycle(ctx); err != nil {
		t.Fatal(err)
	}
	if !d.gate.Ready() {
		t.Fatal("the cycle served nothing")
	}
	checks, seen := ctx.checks.Load(), ctx.seen.Load()
	if checks < int32(o.epochs) {
		t.Fatalf("the trainer checked its context %d times over %d epochs; the test needs one check per epoch", checks, o.epochs)
	}
	switch {
	case seen == 0:
		t.Fatalf("the cut's events stayed reachable through all %d epochs", checks)
	case seen == checks:
		t.Fatalf("the cut's events were collected only after the last of %d epochs", checks)
	}
	if !traceGone.Load() || !eventsGone.Load() {
		t.Errorf("collected while training: trace %v, event array %v; want both", traceGone.Load(), eventsGone.Load())
	}
}
