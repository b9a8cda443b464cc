package main

import (
	"encoding/json"
	"errors"
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

// budgets assembles the gate limits from the flags. The zero value —
// no -drift* flag set — disables the gate entirely.
func (o *options) budgets() drift.Budgets {
	return drift.Budgets{
		MaxScore:               o.driftMax,
		MaxVocabChurn:          o.driftChurn,
		MinNeighborhoodOverlap: o.driftOverlap,
		MaxSilhouetteDrop:      o.driftSilDrop,
		MaxClassShift:          o.driftShift,
		MaxNewClusterFrac:      o.driftNew,
	}
}

// driftEnabled reports whether any gate budget is configured.
func (d *daemon) driftEnabled() bool { return d.o.budgets().Enabled() }

// initDrift builds the in-memory gate state and, when a store is
// attached, recovers the persisted decision history. A missing or
// corrupt sidecar is not an error — the history is derived state, so
// the daemon starts a fresh log and keeps going.
func (d *daemon) initDrift() {
	d.drift.hist = drift.NewHistory(d.o.driftHist)
	if d.st == nil || !d.driftEnabled() {
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
	if !d.driftEnabled() {
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
	return snap, rep, d.o.budgets().Evaluate(rep), nil
}

// recordDecision appends a gate verdict to the history and persists the
// log through the store's crash-safe sidecar (best effort: a failed
// persist never fails the cycle that produced the decision).
func (d *daemon) recordDecision(dec drift.Decision) {
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
	d.drift.mu.Lock()
	d.drift.last = rep
	baseline := ""
	if d.drift.prev != nil {
		baseline = d.drift.prev.Version
	}
	d.drift.mu.Unlock()
	d.recordDecision(drift.Decision{
		Unix:      time.Now().Unix(),
		Candidate: snap.Version,
		Baseline:  baseline,
		Accepted:  false,
		Reasons:   reasons,
		Report:    rep,
	})
	d.status.driftReject.Store(true)
	return fmt.Errorf("%w: %s", drift.ErrRejected, strings.Join(reasons, "; "))
}

// acceptGeneration installs the snapshot of the generation just swapped in
// as the new comparison baseline under its published name (v != 0; an
// unmanaged generation keeps its candidate name) and records the decision;
// no snapshot leaves the gate as it was. A generation accepted without a
// report had no baseline to be judged against; it is logged as the
// baseline. extraReasons annotate an accepted decision with cycle context —
// e.g. a warm-start that had to fall back to cold — without changing the
// verdict.
func (d *daemon) acceptGeneration(snap *drift.Snapshot, rep *drift.Report, v modelstore.Version, extraReasons ...string) {
	if snap == nil {
		return
	}
	if v != 0 {
		snap.Version = v.String()
	}
	if rep != nil {
		rep.NextVersion = snap.Version
	}
	d.drift.mu.Lock()
	baseline := ""
	if d.drift.prev != nil {
		baseline = d.drift.prev.Version
	}
	d.drift.prev = snap
	d.drift.last = rep
	d.drift.mu.Unlock()
	dec := drift.Decision{
		Unix:      time.Now().Unix(),
		Candidate: snap.Version,
		Baseline:  baseline,
		Accepted:  true,
		Report:    rep,
	}
	if rep == nil {
		dec.Reasons = []string{"baseline"}
	}
	dec.Reasons = append(dec.Reasons, extraReasons...)
	d.recordDecision(dec)
	if rep == nil {
		d.o.logf("drift: gate armed; baseline %s (%d senders)", snap.Version, snap.Rows())
	}
}

// handleDrift serves /v1/drift: gate configuration, the current
// baseline, the latest comparison report and the decision log. Ungated,
// like /v1/ingest — the drift trajectory must be inspectable while a
// retrain (or the first training run) is still in flight.
func (d *daemon) handleDrift(w http.ResponseWriter, _ *http.Request) {
	b := d.o.budgets()
	d.drift.mu.Lock()
	prev := d.drift.prev
	last := d.drift.last
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
