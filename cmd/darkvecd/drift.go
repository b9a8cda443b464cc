package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/drift"
	"github.com/darkvec/darkvec/internal/modelstore"
	"github.com/darkvec/darkvec/internal/netutil"
)

// auxDrift is the modelstore sidecar slot holding the gate history.
const auxDrift = "drift"

// driftState is the daemon's view of the quality gate: the accepted
// baseline snapshot the next candidate is compared against, the most
// recent comparison report (accepted or rejected), and the bounded
// decision log persisted alongside the MANIFEST.
type driftState struct {
	mu   sync.Mutex
	prev *drift.Snapshot
	last *drift.Report
	seq  int // candidate counter for naming unmanaged generations
	hist *drift.History
}

// driftFlags configure the drift quality gate. Any non-zero budget arms
// it: a retrained candidate violating a budget is rejected before publish
// and the previous generation keeps serving.
type driftFlags struct {
	driftMax, driftChurn, driftOverlap float64 // budgets, 0 = no check
	driftSilDrop, driftShift, driftNew float64
	driftK                             int           // overlap neighbourhood size
	driftHist                          int           // gate decisions retained (persisted with -store)
	budgets                            drift.Budgets // the six budgets, once validated; zero = the gate is off
}

func (o *driftFlags) register(fs *flag.FlagSet) {
	fs.Float64Var(&o.driftMax, "driftmax", 0, "reject a retrain whose composite drift score exceeds this (0 = off)")
	fs.Float64Var(&o.driftChurn, "driftchurn", 0, "reject a retrain whose vocabulary churn exceeds this (0 = off)")
	fs.Float64Var(&o.driftOverlap, "driftoverlap", 0, "reject a retrain whose k-NN neighbourhood overlap falls below this (0 = off)")
	fs.Float64Var(&o.driftSilDrop, "driftsildrop", 0, "reject a retrain whose mean silhouette drops by more than this (0 = off)")
	fs.Float64Var(&o.driftShift, "driftshift", 0, "reject a retrain with a per-class centroid shift above this (0 = off)")
	fs.Float64Var(&o.driftNew, "driftnew", 0, "reject a retrain where a larger fraction of senders lives in majority-new clusters (0 = off)")
	fs.IntVar(&o.driftK, "driftk", 10, "neighbourhood size for the drift overlap metric")
	fs.IntVar(&o.driftHist, "drifthist", drift.DefaultHistorySize, "drift gate decisions retained (persisted with -store)")
}

func (o *driftFlags) validate() error {
	for _, b := range []struct {
		name string
		v    float64
	}{
		{"-driftmax", o.driftMax}, {"-driftchurn", o.driftChurn},
		{"-driftoverlap", o.driftOverlap}, {"-driftsildrop", o.driftSilDrop},
		{"-driftshift", o.driftShift}, {"-driftnew", o.driftNew},
	} {
		// Every drift metric lives in [0,1]; a budget outside that range is
		// a typo that would silently never (or always) trip.
		if b.v < 0 || b.v > 1 {
			return fmt.Errorf("invalid %s %v: must be in [0,1]", b.name, b.v)
		}
	}
	switch {
	case o.driftK < 0:
		return fmt.Errorf("invalid -driftk %d: must be >= 0", o.driftK)
	case o.driftHist < 0:
		return fmt.Errorf("invalid -drifthist %d: must be >= 0", o.driftHist)
	}
	o.budgets = drift.Budgets{
		MaxScore:               o.driftMax,
		MaxVocabChurn:          o.driftChurn,
		MinNeighborhoodOverlap: o.driftOverlap,
		MaxSilhouetteDrop:      o.driftSilDrop,
		MaxClassShift:          o.driftShift,
		MaxNewClusterFrac:      o.driftNew,
	}
	return nil
}

// initDrift builds the in-memory gate state and, when a store is
// attached, recovers the persisted decision history. A missing or
// corrupt sidecar is not an error — the history is derived state, so
// the daemon starts a fresh log and keeps going.
func (d *daemon) initDrift() {
	d.drift.hist = drift.NewHistory(d.o.driftHist)
	if d.st == nil || !d.o.budgets.Enabled() {
		return
	}
	rc, err := d.st.OpenAux(auxDrift)
	if err != nil {
		if !errors.Is(err, modelstore.ErrNoAux) {
			d.o.logf("drift: history sidecar unreadable (starting fresh): %v", err)
		}
		return
	}
	h, lerr := drift.LoadHistory(rc, d.o.driftHist)
	rc.Close()
	if lerr != nil {
		d.o.logf("drift: history sidecar corrupt (starting fresh): %v", lerr)
		return
	}
	d.drift.hist = h
	d.o.logf("drift: recovered %d gate decisions", h.Len())
}

// captureGeneration freezes a candidate (or freshly booted) generation for
// comparison: the space, clustering and classes of its view — the one
// serve() swaps in — and interner ids as stable matching keys so the same
// sender is recognised across retrains. nil, nil with the gate off.
func (d *daemon) captureGeneration(g *core.Generation) (*drift.Snapshot, error) {
	if !d.o.budgets.Enabled() {
		return nil, nil
	}
	in := d.ing.Window().Interner()
	idFn := func(word string) (uint32, bool) {
		ip, err := netutil.ParseIPv4(word)
		if err != nil {
			return 0, false
		}
		return in.ID(ip)
	}
	// A candidate is named before its store version exists.
	d.drift.mu.Lock()
	d.drift.seq++
	name := fmt.Sprintf("candidate-%d", d.drift.seq)
	d.drift.mu.Unlock()
	return drift.Capture(g.Space, g.View.Assign, name, g.View.GateClass, idFn)
}

// gateCheck freezes a candidate and, once a baseline exists, compares the
// two under the budgets; the snapshot that comes back is accepted after the
// swap. Without a baseline there is nothing to judge against and nothing to
// fail: the snapshot comes back alone — or nil when the gate is off or the
// view cannot be frozen, which serve reports once ("clusters unavailable")
// and leaves the gate waiting for a generation it can freeze.
func (d *daemon) gateCheck(g *core.Generation) (*drift.Snapshot, *drift.Report, []string, error) {
	snap, err := d.captureGeneration(g)
	d.drift.mu.Lock()
	prev := d.drift.prev
	d.drift.mu.Unlock()
	if prev == nil {
		return snap, nil, nil, nil
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("drift capture: %w", err)
	}
	rep, err := drift.Compare(prev, snap, drift.Options{K: d.o.driftK})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("drift compare: %w", err)
	}
	return snap, rep, d.o.budgets.Evaluate(rep), nil
}

// recordDecision makes a gate verdict on snap what /v1/drift shows — its
// report the latest, an accepted snapshot the new baseline — appends it to
// the history and persists the log through the store's crash-safe sidecar
// (best effort: a failed persist never fails the cycle that produced the
// decision).
func (d *daemon) recordDecision(snap *drift.Snapshot, rep *drift.Report, accepted bool, reasons []string) {
	dec := drift.Decision{Unix: time.Now().Unix(), Candidate: snap.Version, Accepted: accepted, Reasons: reasons, Report: rep}
	d.drift.mu.Lock()
	if d.drift.prev != nil {
		dec.Baseline = d.drift.prev.Version
	}
	if accepted {
		d.drift.prev = snap
	}
	d.drift.last = rep
	d.drift.mu.Unlock()
	d.drift.hist.Add(dec)
	if d.st == nil {
		return
	}
	if err := d.st.SaveAux(auxDrift, d.drift.hist.Save); err != nil {
		d.o.logf("drift: persisting history: %v", err)
	}
}

// rejectCandidate records the gate verdict, marks the daemon degraded
// with a drift-specific reason, and returns the error the supervisor
// retries on — the exact failure shape of a failed load-back, so the
// backoff/breaker machinery needs no special cases.
func (d *daemon) rejectCandidate(snap *drift.Snapshot, rep *drift.Report, reasons []string) error {
	d.recordDecision(snap, rep, false, reasons)
	d.status.driftReject.Store(true)
	return fmt.Errorf("%w: %s", drift.ErrRejected, strings.Join(reasons, "; "))
}

// acceptGeneration records the generation just swapped in as accepted, its
// snapshot the new baseline under its published name (v != 0; an unmanaged
// one keeps its candidate name); no snapshot leaves the gate as it was. One
// accepted without a report had no baseline to be judged against and is
// logged as the baseline. extraReasons annotate the decision with cycle
// context (a warm start that fell back to cold) without changing it.
func (d *daemon) acceptGeneration(snap *drift.Snapshot, rep *drift.Report, v modelstore.Version, extraReasons ...string) {
	if snap == nil {
		return
	}
	if v != 0 {
		snap.Version = v.String()
	}
	var reasons []string
	if rep != nil {
		rep.NextVersion = snap.Version
	} else {
		reasons = []string{"baseline"}
	}
	d.recordDecision(snap, rep, true, append(reasons, extraReasons...))
	if rep == nil {
		d.o.logf("drift: gate armed; baseline %s (%d senders)", snap.Version, snap.Rows())
	}
}

// handleDrift serves /v1/drift: gate configuration, the current
// baseline, the latest comparison report and the decision log. Ungated,
// like /v1/ingest — the drift trajectory must be inspectable while a
// retrain (or the first training run) is still in flight.
func (d *daemon) handleDrift(w http.ResponseWriter, _ *http.Request) {
	b := d.o.budgets
	d.drift.mu.Lock()
	prev, last := d.drift.prev, d.drift.last
	d.drift.mu.Unlock()
	resp := map[string]any{
		"enabled":  b.Enabled(),
		"rejected": d.status.driftReject.Load(),
	}
	if b.Enabled() {
		resp["budgets"] = b
	}
	if prev != nil {
		resp["baseline"] = map[string]any{
			"version":  prev.Version,
			"senders":  prev.Rows(),
			"mean_sil": prev.MeanSil,
		}
	}
	if last != nil {
		resp["last_report"] = last
	}
	resp["decisions"] = d.drift.hist.Decisions()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
