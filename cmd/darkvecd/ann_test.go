package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/trace"
)

// annDaemon boots a daemon (reusing the store_test harness) and returns
// its base URL plus a shutdown func.
func annDaemon(t *testing.T, o options) (string, func()) {
	t.Helper()
	base, cancel, runErr := startDaemon(t, o)
	return base, func() { stopDaemon(t, cancel, runErr) }
}

func fetchJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// servedIP finds a last-day sender that made it into the serving space
// (training's min-count filter drops rare senders, so not every trace
// event's source is servable).
func servedIP(t *testing.T, base string, tr *trace.Trace) string {
	t.Helper()
	seen := map[string]bool{}
	for _, ev := range tr.LastDays(1).Events {
		ip := ev.Src.String()
		if seen[ip] {
			continue
		}
		seen[ip] = true
		resp, err := http.Get(base + "/v1/sender?ip=" + ip)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return ip
		}
	}
	t.Fatal("no last-day sender found in the serving space")
	return ""
}

// TestANNValidation pins the flag validation for the one ANN knob.
func TestANNValidation(t *testing.T) {
	o := baseOpts("trace.csv")
	o.annMin = -1
	if err := o.validate(); err == nil {
		t.Fatal("negative -annmin must fail validation")
	}
	for _, min := range []int{0, 1, 16384} {
		o = baseOpts("trace.csv")
		o.annMin = min
		if err := o.validate(); err != nil {
			t.Fatalf("-annmin %d should validate: %v", min, err)
		}
	}
}

// TestANNAutoSelection pins annWanted: the index rides the -annmin
// threshold, 1 builds at any size and 0 never builds.
func TestANNAutoSelection(t *testing.T) {
	o := baseOpts("t")
	o.annMin = 1000
	if o.annWanted(999) || !o.annWanted(1000) {
		t.Fatal("selection must flip exactly at -annmin")
	}
	o.annMin = 1
	if !o.annWanted(1) {
		t.Fatal("-annmin 1 must build at any size")
	}
	o.annMin = 0
	if o.annWanted(1 << 20) {
		t.Fatal("-annmin 0 must never build")
	}
}

// TestDaemonServesANN boots a daemon with -annmin 1 and checks the serving
// contract end to end: /v1/model reports mode ivf with index stats, and
// similarity + classification answer through the index.
func TestDaemonServesANN(t *testing.T) {
	tracePath, tr := writeTestTrace(t, t.TempDir())
	o := baseOpts(tracePath)
	o.annMin = 1
	base, shutdown := annDaemon(t, o)
	defer shutdown()

	var model apiserver.ModelResponse
	if code := fetchJSON(t, base+"/v1/model", &model); code != http.StatusOK {
		t.Fatalf("/v1/model = %d", code)
	}
	if model.KNNMode != "ivf" || model.Index == nil {
		t.Fatalf("model = %+v, want ivf with index stats", model)
	}
	if model.Index.CalibratedRecall < model.Index.TargetRecall {
		t.Fatalf("index calibration %.3f below target %.3f", model.Index.CalibratedRecall, model.Index.TargetRecall)
	}
	if model.ANNError != "" {
		t.Fatalf("unexpected ann_error %q", model.ANNError)
	}

	// A last-day sender answers both query shapes through the index.
	ip := servedIP(t, base, tr)
	var sim apiserver.SimilarResponse
	if code := fetchJSON(t, base+"/v1/similar?ip="+ip+"&k=5", &sim); code != http.StatusOK {
		t.Fatalf("/v1/similar = %d", code)
	}
	if len(sim.Neighbors) == 0 {
		t.Fatal("no neighbours through the index")
	}
	var cls apiserver.ClassifyResponse
	if code := fetchJSON(t, base+"/v1/classify?ip="+ip+"&k=5", &cls); code != http.StatusOK {
		t.Fatalf("/v1/classify = %d", code)
	}
	if cls.Class == "" || cls.Support == 0 {
		t.Fatalf("degenerate classification through the index: %+v", cls)
	}

	// Healthy daemon: ready, no ann degradation.
	var ready map[string]any
	if code := fetchJSON(t, base+"/healthz/ready", &ready); code != http.StatusOK {
		t.Fatalf("/healthz/ready = %d", code)
	}
	if ready["status"] != "ready" {
		t.Fatalf("ready status = %v", ready["status"])
	}
}

// TestDaemonANNBuildFailureDegrades injects a build failure: the daemon
// must serve the generation exactly (zero refused queries), report mode
// exact with the error on /v1/model, and flag ann_degraded on readiness.
func TestDaemonANNBuildFailureDegrades(t *testing.T) {
	tracePath, tr := writeTestTrace(t, t.TempDir())
	o := baseOpts(tracePath)
	o.annMin = 1
	o.annBuild = func(*embed.Space, embed.IVFOptions) (*embed.IVF, error) {
		return nil, errors.New("synthetic index failure")
	}
	base, shutdown := annDaemon(t, o)
	defer shutdown()

	var model apiserver.ModelResponse
	if code := fetchJSON(t, base+"/v1/model", &model); code != http.StatusOK {
		t.Fatalf("/v1/model = %d", code)
	}
	if model.KNNMode != "exact" || model.Index != nil {
		t.Fatalf("degraded daemon must serve exact: %+v", model)
	}
	if model.ANNError != "synthetic index failure" {
		t.Fatalf("ann_error = %q", model.ANNError)
	}

	// Queries still answer — degradation, never refusal.
	ip := servedIP(t, base, tr)
	var sim apiserver.SimilarResponse
	if code := fetchJSON(t, base+"/v1/similar?ip="+ip+"&k=5", &sim); code != http.StatusOK {
		t.Fatalf("/v1/similar while degraded = %d", code)
	}
	if len(sim.Neighbors) == 0 {
		t.Fatal("degraded daemon returned no neighbours")
	}

	var ready map[string]any
	fetchJSON(t, base+"/healthz/ready", &ready)
	if ready["status"] != "degraded" {
		t.Fatalf("ready status = %v, want degraded", ready["status"])
	}
	reasons, _ := ready["degraded_reasons"].([]any)
	found := false
	for _, r := range reasons {
		if r == "ann_degraded" {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded_reasons = %v, want ann_degraded", reasons)
	}
	if ready["ann_error"] != "synthetic index failure" {
		t.Fatalf("ready ann_error = %v", ready["ann_error"])
	}
}

// TestDaemonANNOffStaysExact: -annmin 0 serves exact with no index block
// and no degradation.
func TestDaemonANNOffStaysExact(t *testing.T) {
	tracePath, _ := writeTestTrace(t, t.TempDir())
	o := baseOpts(tracePath)
	o.annMin = 0
	base, shutdown := annDaemon(t, o)
	defer shutdown()

	var model apiserver.ModelResponse
	if code := fetchJSON(t, base+"/v1/model", &model); code != http.StatusOK {
		t.Fatalf("/v1/model = %d", code)
	}
	if model.KNNMode != "exact" || model.Index != nil || model.ANNError != "" {
		t.Fatalf("model = %+v, want plain exact", model)
	}
	var ready map[string]any
	if code := fetchJSON(t, base+"/healthz/ready", &ready); code != http.StatusOK {
		t.Fatalf("/healthz/ready = %d", code)
	}
	if ready["status"] != "ready" {
		t.Fatalf("ready status = %v", ready["status"])
	}
}
