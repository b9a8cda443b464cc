package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/trace"
)

// TestStaticBootBytesPinned holds a static boot to the bytes it produced
// at commit e1d8d98, when a static daemon still re-read -in for every
// generation: the published artifact, the classify and similar answers of
// the five busiest last-day senders, and the stats body. /v1/clusters and
// /v1/sender are left out — Louvain depends on map order. The constants
// are amd64's, like the trainer pins.
func TestStaticBootBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("model bytes were recorded on amd64")
	}
	const (
		wantModel   = "c7d45ce736f197f3bebb4e1971991271c19b7a096e212d45eb248b1f4a21d16e"
		wantAnswers = "64a668981ce41014ff1a6604c02b86db64d68a4c096293994fe25d2dedb664e1"
		wantStats   = "a6400f15d4977d8ad8d7320e59f0a944dd7c96043131efaa0cd9fe06413307e5"
	)
	dir := t.TempDir()
	tracePath, tr := writeTestTrace(t, dir)
	o := baseOpts(tracePath)
	o.store = filepath.Join(dir, "store")
	base, cancel, runErr := startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)

	model, err := os.ReadFile(filepath.Join(o.store, "v000001.model"))
	if err != nil {
		t.Fatal(err)
	}
	var answers []byte
	for _, ip := range lastDayTop(tr)[:5] {
		for _, path := range []string{"/v1/classify?ip=", "/v1/similar?ip="} {
			code, _, body := getFull(t, base+path+ip.String())
			if code != http.StatusOK {
				t.Fatalf("%s%s = %d (%s)", path, ip, code, body)
			}
			answers = append(answers, body...)
		}
	}
	_, _, stats := getFull(t, base+"/v1/stats")
	for _, c := range []struct{ name, got, want string }{
		{"v000001.model", sha(model), wantModel},
		{"classify+similar", sha(answers), wantAnswers},
		{"/v1/stats", sha(stats), wantStats},
	} {
		if c.got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestStaticDaemonIsBatchGenerate: a static daemon's first generation is
// the batch pipeline run once over its file. The artifact it publishes
// equals, byte for byte, core.Generate's model over the same file with the
// daemon's configuration, sealed the way the store seals it.
func TestStaticDaemonIsBatchGenerate(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)
	o := baseOpts(tracePath)
	o.store = filepath.Join(dir, "store")
	_, cancel, runErr := startDaemon(t, o)
	stopDaemon(t, cancel, runErr)
	served, err := os.ReadFile(filepath.Join(o.store, "v000001.model"))
	if err != nil {
		t.Fatal(err)
	}

	tr, _, err := trace.ReadFile(tracePath, o.maxErr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.config()
	g, err := core.Generate(tr.Cut(cfg.MinPackets), o.evalDays, labels.Build(tr, nil), cfg, core.TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	cw := robust.NewChecksumWriter(&batch)
	if err := g.Emb.Model.Save(cw); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteFooter(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, batch.Bytes()) {
		t.Errorf("v000001.model (%d bytes, sha256 %s) differs from batch Generate's model (%d bytes, sha256 %s)",
			len(served), sha(served), batch.Len(), sha(batch.Bytes()))
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestStaticRetrainReadsInOnce: a static daemon reads -in once, at boot, so
// its retrains keep working after the file is rotated away.
func TestStaticRetrainReadsInOnce(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)
	o := baseOpts(tracePath)
	o.store = filepath.Join(dir, "store")
	o.retrain = 20 * time.Millisecond
	o.retrainSleep = fastSleep
	o.retrainBackoff = robust.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	outcomes := make(chan error, 16)
	o.onRetrain = func(err error) {
		select {
		case outcomes <- err:
		default:
		}
	}
	base, cancel, runErr := startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)

	if err := os.Remove(tracePath); err != nil {
		t.Fatal(err)
	}
	// Cycles that finished before the removal read the file while it
	// existed; only the ones after it say anything.
	for len(outcomes) > 0 {
		<-outcomes
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-outcomes:
			if err != nil {
				t.Fatalf("retrain %d after -in was removed: %v", i, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("no retrain outcome")
		}
	}
	if ready := readyBody(t, base); ready["status"] != "ready" {
		t.Fatalf("ready after -in was removed = %v", ready)
	}
}

// TestStaticWindowIsTheWholeFile: a daemon with no live source serves the
// whole -in file whatever the live-window limits say, and never reports a
// stall — there is no feed to fall silent.
func TestStaticWindowIsTheWholeFile(t *testing.T) {
	dir := t.TempDir()
	tracePath, tr := writeTestTrace(t, dir)
	o := baseOpts(tracePath)
	o.ingestCap = 10
	o.ingestAge = time.Hour
	o.ingestStall = time.Millisecond
	o.ingestMin = 1 << 20
	base, cancel, runErr := startDaemon(t, o)
	defer stopDaemon(t, cancel, runErr)

	st := getIngestStats(t, base)
	first, last := tr.Span()
	if st.Window.Events != tr.Len() || st.Window.FirstTs != first || st.Window.LastTs != last {
		t.Errorf("window = %+v, want %d events over [%d, %d]", st.Window, tr.Len(), first, last)
	}
	if st.Window.EvictedAge != 0 || st.Window.EvictedCap != 0 {
		t.Errorf("static window evicted: %+v", st.Window)
	}
	ready := readyBody(t, base)
	if ready["status"] != "ready" || ready["ingest_stalled"] != nil {
		t.Errorf("ready = %v, want ready without ingest_stalled", ready)
	}
}
