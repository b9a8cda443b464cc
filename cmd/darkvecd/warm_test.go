package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// warmOpts is baseOpts plus a store and a fast warm retrain loop.
func warmOpts(t *testing.T, dir, tracePath string) options {
	t.Helper()
	o := baseOpts(tracePath)
	o.store = filepath.Join(dir, "store")
	o.retrain = 20 * time.Millisecond
	o.warm = true
	o.epochs = 2
	o.retrainFail = 100000
	o.retrainSleep = fastSleep
	o.retrainBackoff = robust.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	return o
}

// pollModel fetches /v1/model until pred is satisfied or the deadline
// passes, returning the last response.
func pollModel(t *testing.T, base string, pred func(apiserver.ModelResponse) bool) apiserver.ModelResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	var mr apiserver.ModelResponse
	for {
		mr = apiserver.ModelResponse{}
		if code := fetchJSON(t, base+"/v1/model", &mr); code == http.StatusOK && pred(mr) {
			return mr
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/model never reached the expected state; last: %+v", mr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWarmRetrainIdenticalWindow is the end-to-end determinism pin: a
// daemon with no live source retrains on a window that cannot change, so a
// warm retrain sees a zero-token delta and must run zero epochs — and
// /v1/model must say so.
func TestWarmRetrainIdenticalWindow(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)
	o := warmOpts(t, dir, tracePath)
	base, cancel, runErr := startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)

	mr := pollModel(t, base, func(mr apiserver.ModelResponse) bool {
		return mr.Retrain != nil && mr.Retrain.Mode == "warm"
	})
	if mr.Retrain.Epochs != 0 {
		t.Errorf("identical window warm retrain ran %d epochs, want 0", mr.Retrain.Epochs)
	}
	if mr.Retrain.WarmFallback != "" {
		t.Errorf("unexpected warm fallback: %q", mr.Retrain.WarmFallback)
	}
	if mr.Retrain.DurationSecs < 0 {
		t.Errorf("negative retrain duration %v", mr.Retrain.DurationSecs)
	}
}

// TestWarmFallbackToCold: a corrupted warm seed must not fail the cycle —
// the retrain retries cold, serves the result, reports the fallback on
// /v1/model and composes the reason into the drift decision log.
func TestWarmFallbackToCold(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)
	o := warmOpts(t, dir, tracePath)
	o.driftChurn = 1.0 // arm the gate (a churn of 1.0 is unreachable) so decisions are logged
	o.warmSeedHook = func(ws *w2v.WarmSeed) {
		// A truncated input matrix: the shape check must catch it.
		bad := *ws.Prev
		bad.Syn0 = bad.Syn0[:len(bad.Syn0)-1]
		ws.Prev = &bad
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

	select {
	case err := <-outcomes:
		if err != nil {
			t.Fatalf("cycle with corrupt warm seed failed: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("no retrain outcome")
	}
	mr := pollModel(t, base, func(mr apiserver.ModelResponse) bool {
		return mr.Retrain != nil && mr.Retrain.WarmFallback != ""
	})
	if mr.Retrain.Mode != "cold" {
		t.Errorf("fallback cycle mode = %q, want cold", mr.Retrain.Mode)
	}
	if !strings.Contains(mr.Retrain.WarmFallback, "warm seed unusable") {
		t.Errorf("warm_fallback = %q, want the ErrWarmSeed text", mr.Retrain.WarmFallback)
	}
	// The decision log must carry the fallback annotation on an accepted
	// decision (the gate passed; only the seeding path degraded).
	deadline := time.Now().Add(time.Minute)
	for {
		_, _, body := getFull(t, base+"/v1/drift")
		if strings.Contains(string(body), "warm_fallback:") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decision log never recorded the warm fallback: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lastDayTop returns active senders of the trace's last day, busiest first.
func lastDayTop(tr *trace.Trace) []netutil.IPv4 {
	active := tr.ActiveSenders(10)
	counts := map[netutil.IPv4]int{}
	for _, e := range tr.LastDays(1).Events {
		if active[e.Src] {
			counts[e.Src]++
		}
	}
	out := make([]netutil.IPv4, 0, len(counts))
	for ip := range counts {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool {
		if counts[out[i]] != counts[out[j]] {
			return counts[out[i]] > counts[out[j]]
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// TestWarmRetiresVanishedSender: when a sender disappears from the window,
// the warm retrain must retire its vector — /v1/similar returns 404 for
// it, and it never appears among any surviving sender's neighbours. The
// window of a daemon without a live source is the -in file it booted on,
// so the shift is a reboot on the same store: the served generation still
// holds the victim, the new window does not.
func TestWarmRetiresVanishedSender(t *testing.T) {
	dir := t.TempDir()
	tracePath, tr := writeTestTrace(t, dir)
	top := lastDayTop(tr)
	if len(top) < 2 {
		t.Skip("trace too small for a retirement scenario")
	}
	victim, witness := top[0], top[1]

	o := warmOpts(t, dir, tracePath)
	base, cancel, runErr := startDaemon(t, o)
	// The victim serves before the window shifts.
	if code, _, _ := getFull(t, base+"/v1/similar?ip="+victim.String()); code != http.StatusOK {
		t.Fatalf("victim %s never served (status %d)", victim, code)
	}
	stopDaemon(t, cancel, runErr)

	// The window shifts: every packet of the victim vanishes.
	keep := map[netutil.IPv4]bool{}
	for _, ip := range tr.Senders() {
		keep[ip] = ip != victim
	}
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.FilterSenders(keep).WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	base, cancel, runErr = startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, _, _ := getFull(t, base+"/v1/similar?ip="+victim.String())
		if code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("vanished sender %s still serving (status %d)", victim, code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mr := pollModel(t, base, func(mr apiserver.ModelResponse) bool { return mr.Retrain != nil })
	if mr.Retrain.Mode != "warm" {
		t.Errorf("post-shift retrain mode = %q, want warm", mr.Retrain.Mode)
	}
	// No stale neighbours: the witness's full neighbour list must not
	// contain the retired sender.
	var sim apiserver.SimilarResponse
	if code := fetchJSON(t, base+fmt.Sprintf("/v1/similar?ip=%s&k=%d", witness, len(top)+10), &sim); code != http.StatusOK {
		t.Fatalf("witness similar = %d", code)
	}
	for _, n := range sim.Neighbors {
		if n.IP == victim.String() {
			t.Fatalf("retired sender %s surfaced as a neighbour of %s", victim, witness)
		}
	}
}

// TestWarmCrashMidRetrainChaos is the acceptance chaos drill: a daemon
// dies mid-warm-retrain (abrupt cancel, plus a torn artifact the publish
// would have left), reboots from the newest intact generation, keeps
// answering every request, and its next warm cycle succeeds.
func TestWarmCrashMidRetrainChaos(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)
	o := warmOpts(t, dir, tracePath)

	// Phase A: reach a steady warm cadence, then die mid-warm-train. The
	// seed hook fires at the start of every warm cycle — the third one
	// pulls the plug while training is in flight.
	ctxA, cancelA := context.WithCancel(context.Background())
	var warmCycles atomic.Int64
	o.warmSeedHook = func(*w2v.WarmSeed) {
		if warmCycles.Add(1) == 3 {
			cancelA()
		}
	}
	readyA := make(chan string, 1)
	o.onReady = func(addr string) { readyA <- addr }
	runErrA := make(chan error, 1)
	go func() { runErrA <- run(ctxA, o) }()
	select {
	case <-readyA:
	case err := <-runErrA:
		t.Fatalf("daemon A exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon A never ready")
	}
	select {
	case err := <-runErrA:
		if err != nil {
			t.Fatalf("daemon A crash-exit: %v", err)
		}
	case <-time.After(2 * time.Minute):
		cancelA()
		t.Fatal("daemon A never exited after mid-retrain cancel")
	}

	// The kill -9 residue: a newer artifact torn mid-publish.
	matches, err := filepath.Glob(filepath.Join(o.store, "v*.model"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no published generations after phase A: %v %v", matches, err)
	}
	sort.Strings(matches)
	newest := filepath.Base(matches[len(matches)-1])
	var n int
	if _, err := fmt.Sscanf(newest, "v%06d.model", &n); err != nil {
		t.Fatalf("unexpected artifact name %q: %v", newest, err)
	}
	torn := filepath.Join(o.store, fmt.Sprintf("v%06d.model", n+1))
	if err := os.WriteFile(torn, []byte("torn mid-publish by kill -9"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase B: reboot on the same store. Must boot from the newest intact
	// generation, quarantine the torn one, and answer every request while
	// the next warm cycle runs.
	o2 := warmOpts(t, dir, tracePath)
	var booted atomic.Bool
	o2.logf = func(format string, args ...any) {
		if strings.Contains(format, "booted from store") {
			booted.Store(true)
		}
	}
	base, cancel, runErr := startDaemon(t, o2)
	defer stopDaemon(t, cancel, runErr)
	if !booted.Load() {
		t.Error("daemon B retrained at boot instead of serving the newest intact generation")
	}

	// Zero dropped requests: hammer the API during the warm cycle.
	hammerStop, hammerDone := make(chan struct{}), make(chan struct{})
	hammerBad := make(chan string, 1)
	go func() {
		defer close(hammerDone)
		for {
			select {
			case <-hammerStop:
				return
			default:
			}
			resp, err := http.Get(base + "/v1/stats")
			if err != nil {
				select {
				case hammerBad <- err.Error():
				default:
				}
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				select {
				case hammerBad <- fmt.Sprintf("status %d", resp.StatusCode):
				default:
				}
				return
			}
		}
	}()

	mr := pollModel(t, base, func(mr apiserver.ModelResponse) bool {
		return mr.Retrain != nil && mr.Retrain.Mode == "warm" && mr.Retrain.WarmFallback == ""
	})
	if mr.Retrain.Mode != "warm" {
		t.Fatalf("post-crash retrain mode = %q", mr.Retrain.Mode)
	}
	close(hammerStop)
	<-hammerDone
	// Retire the keep-alive connections before the deferred stop: a
	// connection the client dialed but never sent a request on counts as
	// busy to the server's drain for its first five seconds.
	http.DefaultClient.CloseIdleConnections()
	select {
	case bad := <-hammerBad:
		t.Fatalf("request dropped during post-crash warm cycle: %s", bad)
	default:
	}
	if _, err := os.Stat(torn + ".corrupt"); err != nil {
		t.Errorf("torn artifact not quarantined: %v", err)
	}
}
