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
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
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

// captureGeneration freezes a candidate (or freshly booted) generation
// for comparison: its eval-window space — the one serve() swaps in — its
// clustering, ground-truth classes for the per-class shift table, and
// interner ids as stable matching keys so the same sender is recognised
// across retrains.
func (d *daemon) captureGeneration(space *embed.Space, gt *labels.Set, version string) (*drift.Snapshot, error) {
	cl := core.Cluster(space, d.o.kPrime, d.o.seed)
	in := d.trainInterner()
	classFn := func(word string) string {
		ip, err := netutil.ParseIPv4(word)
		if err != nil {
			return ""
		}
		if c := gt.Class(ip); c != labels.Unknown {
			return c
		}
		return ""
	}
	idFn := func(word string) (uint32, bool) {
		ip, err := netutil.ParseIPv4(word)
		if err != nil {
			return 0, false
		}
		return in.ID(ip)
	}
	return drift.Capture(space, cl.Assign, version, classFn, idFn)
}

// gateCheck freezes a candidate and compares it against the accepted
// baseline under the budgets. All-nil means there is no baseline yet (or
// the gate is off, which never sets one): nothing is captured, the
// generation is served unjudged and driftBootstrap makes it the baseline.
func (d *daemon) gateCheck(space *embed.Space, gt *labels.Set) (*drift.Snapshot, *drift.Report, []string, error) {
	d.drift.mu.Lock()
	prev := d.drift.prev
	d.drift.mu.Unlock()
	if prev == nil {
		return nil, nil, nil, nil
	}
	snap, err := d.captureGeneration(space, gt, d.nextCandidateName())
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

// nextCandidateName labels a candidate before its store version exists.
func (d *daemon) nextCandidateName() string {
	d.drift.mu.Lock()
	d.drift.seq++
	n := d.drift.seq
	d.drift.mu.Unlock()
	return fmt.Sprintf("candidate-%d", n)
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

// acceptGeneration installs an accepted snapshot as the new comparison
// baseline under its published name (v != 0; an unmanaged generation keeps
// its candidate name) and records the decision. A generation accepted
// without a report had no baseline to be judged against; it is logged as
// the baseline. extraReasons annotate an accepted decision with cycle
// context — e.g. a warm-start that had to fall back to cold — without
// changing the verdict.
func (d *daemon) acceptGeneration(snap *drift.Snapshot, rep *drift.Report, v modelstore.Version, extraReasons ...string) {
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
}

// driftBootstrap captures a generation that was served unjudged — loaded
// from the store, or produced while the gate had no baseline — as the
// baseline the next candidate is compared against. Best effort: a capture
// failure leaves the gate waiting for the next generation to seed it.
func (d *daemon) driftBootstrap(space *embed.Space, gt *labels.Set, v modelstore.Version) {
	if !d.driftEnabled() {
		return
	}
	snap, err := d.captureGeneration(space, gt, d.nextCandidateName())
	if err != nil {
		d.o.logf("drift: baseline capture: %v", err)
		return
	}
	d.acceptGeneration(snap, nil, v)
	d.o.logf("drift: gate armed; baseline %s (%d senders)", snap.Version, snap.Rows())
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
