package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/apiserver"
)

// assertGateJudgedWhatIsServed checks, on a daemon that is not swapping
// right now, that the drift baseline and the API server describe one look
// at one generation: same version, same sender count, and a baseline mean
// silhouette equal to the sender-weighted mean of the served clusters'.
// Returns the version checked.
func assertGateJudgedWhatIsServed(t *testing.T, base string) string {
	t.Helper()
	baseline, _ := driftBody(t, base)["baseline"].(map[string]any)
	if baseline == nil {
		t.Fatal("/v1/drift has no baseline for the serving generation")
	}

	code, hdr, body := getFull(t, base+"/v1/model")
	if code != http.StatusOK {
		t.Fatalf("/v1/model = %d", code)
	}
	served := hdr.Get("X-DarkVec-Model-Version")
	var model apiserver.ModelResponse
	if err := json.Unmarshal(body, &model); err != nil {
		t.Fatal(err)
	}
	if v, _ := baseline["version"].(string); v == "" || v != served {
		t.Fatalf("baseline.version = %q, serving %q", v, served)
	}
	if n, _ := baseline["senders"].(float64); int(n) != model.Senders {
		t.Fatalf("baseline.senders = %v, /v1/model senders = %d", n, model.Senders)
	}

	code, hdr, body = getFull(t, base+"/v1/clusters?min=0")
	if code != http.StatusOK || hdr.Get("X-DarkVec-Model-Version") != served {
		t.Fatalf("/v1/clusters = %d from %q, want 200 from %q", code, hdr.Get("X-DarkVec-Model-Version"), served)
	}
	var clusters []apiserver.ClusterEntry
	if err := json.Unmarshal(body, &clusters); err != nil {
		t.Fatal(err)
	}
	var silSum float64
	senders := 0
	for _, c := range clusters {
		silSum += c.AvgSil * float64(c.Senders)
		senders += c.Senders
	}
	if senders != model.Senders {
		t.Fatalf("/v1/clusters covers %d senders, /v1/model serves %d", senders, model.Senders)
	}
	meanSil, _ := baseline["mean_sil"].(float64)
	if want := silSum / float64(senders); math.Abs(meanSil-want) > 1e-9 {
		t.Fatalf("%s: baseline.mean_sil = %v, served clusters average %v — the gate judged something else than is served", served, meanSil, want)
	}
	return served
}

// TestOneViewPerGeneration: a gated, store-managed live daemon takes one
// look per generation. After every swap — the first cycle off an empty
// store, later cycles judged against a baseline, and a reboot from the
// store — what /v1/drift says the gate accepted is exactly what /v1/model
// and /v1/clusters serve. Each retrain outcome is held in the hook while
// the test looks, so no swap can slide between the reads.
func TestOneViewPerGeneration(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)

	o := liveOpts()
	o.in = tracePath // seeds the window
	o.store = filepath.Join(dir, "store")
	o.driftMax = 1 // arms the gate; a score never exceeds 1, so nothing is rejected
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cycled := make(chan error)
	resume := make(chan struct{})
	o.onRetrain = func(err error) {
		select {
		case cycled <- err:
			select {
			case <-resume:
			case <-ctx.Done():
			}
		case <-ctx.Done():
		}
	}
	httpAddr, _, _, runErr := startLive(t, ctx, o)
	base := "http://" + httpAddr

	seen := map[string]bool{}
	for {
		select {
		case err := <-cycled:
			if err != nil {
				t.Fatalf("cycle failed: %v", err)
			}
		case err := <-runErr:
			t.Fatalf("daemon exited: %v", err)
		case <-time.After(2 * time.Minute):
			t.Fatal("no retrain outcome")
		}
		seen[assertGateJudgedWhatIsServed(t, base)] = true
		if len(seen) == 3 {
			break // stop while the loop is still held: the store ends on a checked generation
		}
		resume <- struct{}{}
	}
	stopDaemon(t, cancel, runErr)

	// Reboot on the same store, with the retrain tick out of reach: the
	// generation checked is the one loaded back, not a fresh cycle's.
	o2 := liveOpts()
	o2.in = tracePath
	o2.store = o.store
	o2.driftMax = 1
	o2.retrain = time.Hour
	base2, cancel2, runErr2 := startDaemon(t, o2)
	defer stopDaemon(t, cancel2, runErr2)
	// The baseline is accepted just after the swap that flips readiness.
	waitFor(t, "the booted generation to arm the gate", func() bool {
		return driftBody(t, base2)["baseline"] != nil
	})
	if v := assertGateJudgedWhatIsServed(t, base2); !seen[v] {
		t.Fatalf("rebooted onto %s, which the first run never published (%v)", v, seen)
	}
}
