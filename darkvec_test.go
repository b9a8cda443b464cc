package darkvec_test

import (
	"bytes"
	"testing"

	"github.com/darkvec/darkvec"
)

// publicFixture exercises the whole public surface once per test binary.
var publicFixture = struct {
	data *darkvec.SimOutput
	emb  *darkvec.Embedding
	gt   *darkvec.GroundTruth
}{}

func fixture(t *testing.T) (*darkvec.SimOutput, *darkvec.Embedding, *darkvec.GroundTruth) {
	t.Helper()
	if publicFixture.data == nil {
		data := darkvec.Simulate(darkvec.SimConfig{Seed: 9, Days: 8, Scale: 0.01, Rate: 0.05})
		cfg := darkvec.DefaultConfig()
		cfg.W2V.Dim = 24
		cfg.W2V.Window = 10
		cfg.W2V.Epochs = 3
		emb, err := darkvec.Train(data.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		publicFixture.data = data
		publicFixture.emb = emb
		publicFixture.gt = darkvec.BuildGroundTruth(data.Trace, data.Feeds)
	}
	return publicFixture.data, publicFixture.emb, publicFixture.gt
}

func TestPublicSemiSupervisedFlow(t *testing.T) {
	data, emb, gt := fixture(t)
	space, cov := emb.EvalSpace(data.Trace.LastDays(1), nil)
	if cov < 0.99 {
		t.Fatalf("coverage = %v", cov)
	}
	rep := darkvec.Evaluate(space, gt, 7)
	if rep.Accuracy < 0.7 {
		t.Fatalf("accuracy = %v\n%s", rep.Accuracy, rep)
	}
	preds := darkvec.Predict(space, gt, 7)
	if len(preds) != space.Len() {
		t.Fatalf("predictions = %d, space = %d", len(preds), space.Len())
	}
	ext := darkvec.ExtendGroundTruth(preds)
	for class, list := range ext {
		if class == darkvec.UnknownClass {
			t.Fatal("unknown must never be an extension target")
		}
		for _, p := range list {
			if p.Truth != darkvec.UnknownClass {
				t.Fatalf("extension promoted a labeled sender: %+v", p)
			}
		}
	}
}

func TestPublicUnsupervisedFlow(t *testing.T) {
	data, emb, gt := fixture(t)
	space, _ := emb.EvalSpace(data.Trace.LastDays(1), nil)
	cl := darkvec.Cluster(space, 3, 1)
	if cl.Clusters < 2 || len(cl.Assign) != space.Len() {
		t.Fatalf("clustering = %+v", cl.Clusters)
	}
	sil, err := darkvec.Silhouette(space, cl.Assign)
	if err != nil {
		t.Fatalf("silhouette: %v", err)
	}
	profiles := darkvec.InspectClusters(data.Trace, space, cl.Assign, sil, gt)
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	total := 0
	for _, p := range profiles {
		total += len(p.Senders)
		if p.Describe(darkvec.UnknownClass) == "" {
			t.Fatal("empty description")
		}
	}
	if total != space.Len() {
		t.Fatalf("profiles cover %d of %d senders", total, space.Len())
	}
}

func TestPublicTraceIO(t *testing.T) {
	data, _, _ := fixture(t)
	sub := &darkvec.Trace{Events: data.Trace.Events[:500]}

	var csvBuf bytes.Buffer
	if err := darkvec.WriteTraceCSV(&csvBuf, sub); err != nil {
		t.Fatal(err)
	}
	fromCSV, _, err := darkvec.ReadTraceCSV(&csvBuf, darkvec.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if fromCSV.Len() != sub.Len() {
		t.Fatalf("csv roundtrip: %d != %d", fromCSV.Len(), sub.Len())
	}

	var pcapBuf bytes.Buffer
	if err := darkvec.WriteTracePCAP(&pcapBuf, sub); err != nil {
		t.Fatal(err)
	}
	fromPCAP, rep, err := darkvec.ReadTracePCAP(&pcapBuf, darkvec.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped() != 0 || rep.Truncated() || fromPCAP.Len() != sub.Len() {
		t.Fatalf("pcap roundtrip: %d/%d, %s", fromPCAP.Len(), sub.Len(), rep)
	}
	// The Mirai fingerprint must survive the pcap round trip.
	for i := range sub.Events {
		if sub.Events[i].Mirai != fromPCAP.Events[i].Mirai {
			t.Fatalf("fingerprint lost at event %d", i)
		}
	}
}

func TestDefaultConfigIsPaperOperatingPoint(t *testing.T) {
	cfg := darkvec.DefaultConfig()
	if cfg.W2V.Dim != 50 || cfg.W2V.Window != 25 || cfg.K != 7 || cfg.KPrime != 3 {
		t.Fatalf("defaults drifted: %+v", cfg)
	}
	if cfg.Services != darkvec.ServiceDomain {
		t.Fatalf("default services = %v", cfg.Services)
	}
}

// TestPublicWarmRefresh: a refresh is expressible through the facade alone —
// a model trained on the first days seeds a train over all of them, new
// senders get rows and fewer epochs run than a cold train would.
func TestPublicWarmRefresh(t *testing.T) {
	data := darkvec.Simulate(darkvec.SimConfig{Seed: 9, Days: 4, Scale: 0.01, Rate: 0.05})
	cfg := darkvec.DefaultConfig()
	cfg.W2V.Dim = 16
	cfg.W2V.Window = 8
	cfg.W2V.Epochs = 3
	in := darkvec.NewSenderInterner()
	m, err := darkvec.TrainWithOpts(data.Trace.FirstDays(3), cfg, darkvec.TrainOpts{Interner: in})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := darkvec.TrainWithOpts(data.Trace, cfg, darkvec.TrainOpts{
		Interner: in,
		Warm:     &darkvec.WarmSeed{Prev: m.Model, PrevPerm: m.Model.Perm},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Model.Warm
	if ws == nil || ws.Seeded == 0 || ws.Fresh == 0 || warm.Epochs >= cfg.W2V.Epochs {
		t.Fatalf("not a warm refresh: %+v, %d epochs", ws, warm.Epochs)
	}
	if _, cov := warm.EvalSpace(data.Trace.LastDays(1), nil); cov < 0.99 {
		t.Fatalf("coverage after the refresh = %v", cov)
	}
}
