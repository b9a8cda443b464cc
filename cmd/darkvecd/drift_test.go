package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/robust"
)

// driftBody decodes /v1/drift.
func driftBody(t *testing.T, base string) map[string]any {
	t.Helper()
	code, _, body := getFull(t, base+"/v1/drift")
	if code != http.StatusOK {
		t.Fatalf("/v1/drift = %d, body %s", code, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/v1/drift decode: %v", err)
	}
	return out
}

// readyBody decodes /healthz/ready regardless of status code.
func readyBody(t *testing.T, base string) map[string]any {
	t.Helper()
	_, _, body := getFull(t, base+"/healthz/ready")
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/healthz/ready decode: %v", err)
	}
	return out
}

// hasReason reports whether a decoded degraded_reasons list contains s.
func hasReason(body map[string]any, s string) bool {
	list, _ := body["degraded_reasons"].([]any)
	for _, r := range list {
		if r == s {
			return true
		}
	}
	return false
}

// TestDriftGateRejectsSybilFlood is the acceptance arc for the quality
// gate: a live, store-managed daemon with a churn budget is hit by a
// sybil flood (hundreds of fresh coordinated senders streamed into the
// live window). The next retrain must be rejected before publish — the
// serving generation never changes, no request is dropped, the stale
// header names the drift rejection, /healthz/ready composes the
// degraded reasons (drift rejection + stale model + the now-silent
// feed), /v1/drift reports the verdict, and the PR-2 breaker semantics
// stop the churn after -retrainfail consecutive rejections. The gate
// history must survive on disk next to the MANIFEST.
func TestDriftGateRejectsSybilFlood(t *testing.T) {
	dir := t.TempDir()
	tracePath, baseTr := writeTestTrace(t, dir)
	storeDir := filepath.Join(dir, "store")

	o := liveOpts()
	o.in = tracePath // seeds the window: boot-path training, instant readiness
	o.store = storeDir
	o.retrainFail = 2
	o.retrainSleep = fastSleep
	o.retrainBackoff = robust.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	o.ingestStall = 500 * time.Millisecond
	o.driftChurn = 0.5 // arms the gate; a sybil flood churns ~100% of the eval window
	outcomes := make(chan error, 64)
	o.onRetrain = func(err error) {
		select {
		case outcomes <- err:
		default:
		}
	}
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

	// The boot generation arms the gate — just after it starts serving, so
	// readiness alone does not mean the baseline is captured yet.
	waitFor(t, "the boot generation to arm the gate", func() bool {
		db := driftBody(t, base)
		return db["enabled"] == true && db["baseline"] != nil
	})

	// The flood: fresh coordinated senders, each just above the active
	// filter, starting where the base trace ends so window age bounds
	// cannot evict them.
	end := baseTr.Events[len(baseTr.Events)-1].Ts + 1
	atk, err := darksim.Attack(darksim.AttackConfig{
		Kind: darksim.AttackSybil, Senders: 200, Start: end,
	})
	if err != nil {
		t.Fatal(err)
	}
	streamTrace(t, ingestAddr, atk.Trace)

	// Every retrain that sees the flood must be rejected; the breaker
	// then gives up. Meanwhile the old generation answers every request.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("gate never rejected the sybil retrain")
		}
		code, _, _ := getFull(t, base+"/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("stats during the attack = %d — the previous generation must keep serving", code)
		}
		if driftBody(t, base)["rejected"] == true {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The serving generation is exactly the gate's baseline, and it
	// holds steady while rejections continue.
	db := driftBody(t, base)
	baseline, _ := db["baseline"].(map[string]any)
	want, _ := baseline["version"].(string)
	if want == "" {
		t.Fatalf("no baseline version in %v", db)
	}
	for i := 0; i < 20; i++ {
		code, hdr, _ := getFull(t, base+"/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("stats after rejection = %d", code)
		}
		if got := hdr.Get("X-DarkVec-Model-Version"); got != want {
			t.Fatalf("serving %q after rejection, want the gate baseline %q", got, want)
		}
		if hdr.Get("X-DarkVec-Model-Stale") != "true" {
			t.Fatal("rejected retrain did not mark responses stale")
		}
		if r := hdr.Get("X-DarkVec-Model-Stale-Reason"); !strings.Contains(r, "drift") {
			t.Fatalf("staleness reason %q does not name the drift gate", r)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The decision log carries the rejection with its budget violation.
	decs, _ := db["decisions"].([]any)
	if len(decs) == 0 {
		t.Fatal("no gate decisions recorded")
	}
	lastDec, _ := decs[len(decs)-1].(map[string]any)
	if lastDec["accepted"] != false {
		t.Fatalf("last decision = %v, want a rejection", lastDec)
	}
	reasons, _ := lastDec["reasons"].([]any)
	if len(reasons) == 0 || !strings.Contains(reasons[0].(string), "churn") {
		t.Fatalf("rejection reasons = %v, want a churn violation", reasons)
	}
	rep, _ := db["last_report"].(map[string]any)
	if churn, _ := rep["vocab_churn"].(float64); churn <= 0.5 {
		t.Fatalf("reported churn %v, want > the 0.5 budget", churn)
	}

	// PR-2 semantics preserved: consecutive rejections burn the breaker
	// exactly like corrupt publishes.
	sawGiveUp := false
	giveUpDeadline := time.After(2 * time.Minute)
	for !sawGiveUp {
		select {
		case err := <-outcomes:
			if errors.Is(err, robust.ErrGiveUp) {
				if !strings.Contains(err.Error(), "drift") {
					t.Fatalf("breaker gave up on %v, want a drift rejection", err)
				}
				sawGiveUp = true
			}
		case <-giveUpDeadline:
			t.Fatal("breaker never gave up on the drifting retrains")
		}
	}

	// With the feed silent since the flood ended, the stall joins the
	// composition: all three degraded causes listed at once.
	deadline = time.Now().Add(30 * time.Second)
	var ready map[string]any
	for {
		if time.Now().After(deadline) {
			t.Fatalf("degraded reasons never composed: %v", ready)
		}
		ready = readyBody(t, base)
		if hasReason(ready, "drift_rejected") && hasReason(ready, "stale_model") && hasReason(ready, "ingest_stalled") {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ready["status"] != "degraded" || ready["stale"] != true {
		t.Fatalf("composed ready body = %v", ready)
	}
	_, hdr, _ := getFull(t, base+"/v1/stats")
	if r := hdr.Get("X-DarkVec-Model-Stale-Reason"); !strings.Contains(r, "drift") || !strings.Contains(r, "silent") {
		t.Fatalf("joined staleness reason %q must name both causes", r)
	}

	// The gate history is persisted with the artifacts.
	if _, err := os.Stat(filepath.Join(storeDir, "drift.aux")); err != nil {
		t.Fatalf("drift history sidecar missing: %v", err)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}

	// A restart recovers the decision trajectory from the sidecar.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	o2 := o
	o2.onRetrain = nil
	httpAddr2, _, readyCh2, runErr2 := startLive(t, ctx2, o2)
	select {
	case <-readyCh2:
	case err := <-runErr2:
		t.Fatalf("re-boot exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("re-boot never became ready")
	}
	db2 := driftBody(t, "http://"+httpAddr2)
	recovered, _ := db2["decisions"].([]any)
	if len(recovered) == 0 {
		t.Fatal("gate decisions did not survive the restart")
	}
	cancel2()
	if err := <-runErr2; err != nil {
		t.Fatalf("re-boot shutdown: %v", err)
	}
}

func TestValidateDriftFlags(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"score budget above 1", func(o *options) { o.driftMax = 1.5 }},
		{"negative churn budget", func(o *options) { o.driftChurn = -0.1 }},
		{"overlap above 1", func(o *options) { o.driftOverlap = 2 }},
		{"negative driftk", func(o *options) { o.driftK = -1 }},
		{"negative drifthist", func(o *options) { o.driftHist = -1 }},
		{"budgets without retrain", func(o *options) { o.retrain = 0; o.driftMax = 0.5 }},
	}
	for _, tc := range cases {
		o := liveOpts()
		tc.mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate() accepted %+v", tc.name, o)
		}
	}
	good := liveOpts()
	good.driftMax = 0.4
	good.driftChurn = 0.3
	if err := good.validate(); err != nil {
		t.Fatalf("valid drift options rejected: %v", err)
	}
}
