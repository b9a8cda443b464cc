package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// fastCfg keeps the end-to-end tests quick on one core.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.W2V = w2v.Config{
		Dim: 24, Window: 10, Epochs: 4,
		Seed: 1, ShrinkWindow: true, PadToken: "NULL",
	}
	return cfg
}

func smallSim(t *testing.T) *darksim.Output {
	t.Helper()
	return darksim.Generate(darksim.Config{Seed: 7, Days: 10, Scale: 0.01, Rate: 0.05})
}

func TestDefinitionSelection(t *testing.T) {
	tr := trace.New([]trace.Event{{Ts: 1}})
	for kind, wantKind := range map[ServiceKind]string{
		ServiceSingle: "single",
		ServiceAuto:   "auto",
		ServiceDomain: "domain",
	} {
		cfg := Config{Services: kind, AutoTopN: 5}
		def, err := cfg.Definition(tr)
		if err != nil {
			t.Fatal(err)
		}
		if def.Kind() != wantKind {
			t.Fatalf("kind %s → %s", kind, def.Kind())
		}
	}
	if _, err := (Config{Services: "bogus"}).Definition(tr); err == nil {
		t.Fatal("unknown service kind must fail")
	}
	// Empty kind defaults to auto.
	def, err := (Config{}).Definition(tr)
	if err != nil || def.Kind() != "auto" {
		t.Fatalf("default definition = %v, %v", def, err)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.W2V.Dim != 50 || cfg.W2V.Window != 25 || cfg.K != 7 || cfg.KPrime != 3 ||
		cfg.MinPackets != 10 || cfg.DeltaT != 3600 || cfg.Services != ServiceDomain {
		t.Fatalf("default config drifted from the paper: %+v", cfg)
	}
}

func TestEndToEndSemiSupervised(t *testing.T) {
	out := smallSim(t)
	cfg := fastCfg()
	emb, err := TrainEmbedding(out.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if emb.SkipGrams <= 0 || emb.TrainTime <= 0 {
		t.Fatalf("bookkeeping: %+v", emb)
	}
	gt := labels.Build(out.Trace, out.Feeds)
	space, cov := emb.EvalSpace(out.Trace.LastDays(1), nil)
	if cov < 0.99 {
		t.Fatalf("30-day training must cover the last day fully, cov = %v", cov)
	}
	if space.Len() == 0 {
		t.Fatal("empty eval space")
	}
	rep := Evaluate(space, gt, cfg.K)
	if rep.Accuracy < 0.75 {
		t.Fatalf("accuracy = %.3f, want >= 0.75\n%s", rep.Accuracy, rep)
	}
	// The embedding must beat chance dramatically on the biggest class.
	if rep.Class(labels.MiraiClass).Recall < 0.8 {
		t.Fatalf("mirai recall = %v", rep.Class(labels.MiraiClass).Recall)
	}
}

func TestCoverageGrowsWithTrainingWindow(t *testing.T) {
	out := smallSim(t)
	cfg := fastCfg()
	cfg.W2V.Epochs = 1
	short, err := TrainEmbedding(out.Trace.FirstDays(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := TrainEmbedding(out.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := out.Trace.LastDays(1)
	// The paper defines "active" over the full dataset regardless of the
	// training window — that's what makes coverage grow with the window.
	fullActive := out.Trace.ActiveSenders(10)
	_, covShort := short.EvalSpace(last, fullActive)
	_, covFull := full.EvalSpace(last, fullActive)
	if covShort >= covFull {
		t.Fatalf("coverage must grow with window: %v !< %v", covShort, covFull)
	}
	if covFull < 0.99 {
		t.Fatalf("full-window coverage = %v", covFull)
	}
}

func TestClusterStage(t *testing.T) {
	out := smallSim(t)
	cfg := fastCfg()
	emb, err := TrainEmbedding(out.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	space, _ := emb.EvalSpace(out.Trace.LastDays(1), nil)
	cl := Cluster(space, 3, 1)
	if cl.Clusters < 2 {
		t.Fatalf("clusters = %d", cl.Clusters)
	}
	if cl.Modularity < 0.3 {
		t.Fatalf("modularity = %v", cl.Modularity)
	}
	if len(cl.Assign) != space.Len() {
		t.Fatal("assignment length mismatch")
	}
	// More neighbours ⇒ no more clusters than k′=1 (Fig 10's trend).
	cl1 := Cluster(space, 1, 1)
	if cl1.Clusters < cl.Clusters {
		t.Fatalf("k'=1 clusters %d should exceed k'=3 clusters %d", cl1.Clusters, cl.Clusters)
	}
}

// TestClusterModularityBitsStable: Louvain sums in one order, so the same
// space gives the same assignment and the same modularity bits on every
// call and at any worker count.
func TestClusterModularityBitsStable(t *testing.T) {
	out := smallSim(t)
	emb, err := TrainEmbedding(out.Trace, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	space, _ := emb.EvalSpace(out.Trace.LastDays(1), nil)
	space.MaxProcs = 1
	want := Cluster(space, 3, 1)
	for _, procs := range []int{1, 2, 4} {
		space.MaxProcs = procs
		for i := 0; i < 100; i++ {
			got := Cluster(space, 3, 1)
			if math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) {
				t.Fatalf("MaxProcs %d call %d: modularity %v (%#x), want %v (%#x)", procs, i,
					got.Modularity, math.Float64bits(got.Modularity), want.Modularity, math.Float64bits(want.Modularity))
			}
			if !reflect.DeepEqual(got.Assign, want.Assign) {
				t.Fatalf("MaxProcs %d call %d: assignment differs", procs, i)
			}
		}
	}
}

func TestBuildHeatmapNormalised(t *testing.T) {
	out := smallSim(t)
	gt := labels.Build(out.Trace, out.Feeds)
	h := BuildHeatmap(out.Trace.LastDays(1), gt, services.NewDomain())
	if len(h.Classes) == 0 {
		t.Fatal("no classes in heatmap")
	}
	for _, c := range h.Classes {
		var sum float64
		for _, f := range h.Frac[c] {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("class %s fractions sum to %v", c, sum)
		}
	}
	// Engin-Umich must put all traffic in the dns service (Fig 3's
	// strongest cell).
	if h.Frac[darksim.ClassEnginUmich]["dns"] < 0.999 {
		t.Fatalf("engin-umich dns share = %v", h.Frac[darksim.ClassEnginUmich]["dns"])
	}
}

func TestServiceDefinitionMatters(t *testing.T) {
	// The single-service corpus must produce worse minority-class results
	// than the domain corpus (the paper's central claim, Fig 7 / Table 4).
	out := darksim.Generate(darksim.Config{Seed: 11, Days: 10, Scale: 0.01, Rate: 0.05})
	gt := labels.Build(out.Trace, out.Feeds)
	last := out.Trace.LastDays(1)

	minorityF1 := func(kind ServiceKind) float64 {
		cfg := fastCfg()
		cfg.Services = kind
		emb, err := TrainEmbedding(out.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		space, _ := emb.EvalSpace(last, nil)
		rep := Evaluate(space, gt, cfg.K)
		var sum float64
		var n int
		for _, cls := range rep.Classes {
			if cls.Label == labels.Unknown || cls.Label == labels.MiraiClass {
				continue
			}
			if !math.IsNaN(cls.FScore) {
				sum += cls.FScore
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	domain := minorityF1(ServiceDomain)
	single := minorityF1(ServiceSingle)
	if domain <= single {
		t.Fatalf("domain services F1 %.3f must beat single service %.3f", domain, single)
	}
}
