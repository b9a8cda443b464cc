package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

func modelBytes(t *testing.T, m *w2v.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameSpace reports whether two spaces hold the same words and rows.
func sameSpace(a, b *embed.Space) bool {
	if !reflect.DeepEqual(a.Words, b.Words) || a.Dim != b.Dim {
		return false
	}
	for i := range a.Words {
		if !reflect.DeepEqual(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// checkLook compares a generation's look with a space, coverage and view
// built another way, modularity bit for bit.
func checkLook(t *testing.T, name string, g *Generation, space *embed.Space, cov float64, v *View) {
	t.Helper()
	if !sameSpace(g.Space, space) || g.Coverage != cov {
		t.Errorf("%s: space (%d rows, coverage %v) differs from the stages' (%d rows, coverage %v)",
			name, g.Space.Len(), g.Coverage, space.Len(), cov)
	}
	gv := g.View
	if !reflect.DeepEqual(gv.Assign, v.Assign) || !reflect.DeepEqual(gv.Labels, v.Labels) ||
		!reflect.DeepEqual(gv.Sil, v.Sil) || gv.Clusters != v.Clusters || gv.Modularity != v.Modularity {
		t.Errorf("%s: view differs from the stages' NewView", name)
	}
}

// handRun is the sequence Generate replaces, written out by hand.
func handRun(t *testing.T, tr *trace.Trace, gt *labels.Set, cfg Config, opts TrainOpts) (*Embedding, *embed.Space, float64, *View) {
	t.Helper()
	emb, err := TrainEmbeddingOpts(tr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	space, cov := emb.EvalSpace(tr.LastDays(1), nil)
	return emb, space, cov, NewView(space, gt, cfg.KPrime, cfg.W2V.Seed)
}

// TestGenerateIsTheStagesItReplaces: one Generate equals TrainEmbeddingOpts
// → EvalSpace(LastDays(1), nil) → NewView run by hand, cold and warm-chained
// over two windows; a refused warm seed gives the cold model and says why; a
// cancelled run is an error, not a fallback; and Look over the same model
// loaded from disk (a daemon's boot) equals the generation that trained it.
func TestGenerateIsTheStagesItReplaces(t *testing.T) {
	out := smallSim(t)
	cfg := fastCfg()
	cfg.W2V.Epochs = 2 // the test compares paths, not accuracy
	gt := labels.Build(out.Trace, out.Feeds)
	first, _ := out.Trace.Span()
	day0 := first - first%86400
	winA := out.Trace.Window(day0, day0+8*86400)
	winB := out.Trace.Window(day0+2*86400, day0+10*86400)
	seed := func(m *w2v.Model) *w2v.WarmSeed { return &w2v.WarmSeed{Prev: m, PrevPerm: m.Perm} }

	var gB *Generation
	t.Run("cold and warm-chained", func(t *testing.T) {
		inG, inH := corpus.NewInterner(), corpus.NewInterner()
		gA, err := Generate(winA.Cut(cfg.MinPackets), 1, gt, cfg, TrainOpts{Interner: inG})
		if err != nil {
			t.Fatal(err)
		}
		embA, space, cov, v := handRun(t, winA, gt, cfg, TrainOpts{Interner: inH})
		if !bytes.Equal(modelBytes(t, gA.Emb.Model), modelBytes(t, embA.Model)) {
			t.Error("cold: model bytes differ from TrainEmbeddingOpts")
		}
		checkLook(t, "cold", gA, space, cov, v)

		gB, err = Generate(winB.Cut(cfg.MinPackets), 1, gt, cfg, TrainOpts{Interner: inG, Warm: seed(gA.Emb.Model)})
		if err != nil {
			t.Fatal(err)
		}
		embB, space, cov, v := handRun(t, winB, gt, cfg, TrainOpts{Interner: inH, Warm: seed(embA.Model)})
		if gB.Emb.Model.Warm == nil || gB.WarmFallback != "" {
			t.Fatalf("warm: seed not used (fallback %q)", gB.WarmFallback)
		}
		if !bytes.Equal(modelBytes(t, gB.Emb.Model), modelBytes(t, embB.Model)) {
			t.Error("warm: model bytes differ from TrainEmbeddingOpts")
		}
		checkLook(t, "warm", gB, space, cov, v)
	})

	// chain trains the first window under a fresh interner: the warm seed a
	// daemon would hold, and the id space it is valid in.
	chain := func(t *testing.T) (*corpus.Interner, *w2v.Model) {
		t.Helper()
		in := corpus.NewInterner()
		prev, err := TrainEmbeddingOpts(winA, cfg, TrainOpts{Interner: in})
		if err != nil {
			t.Fatal(err)
		}
		return in, prev.Model
	}

	t.Run("corrupt seed", func(t *testing.T) {
		in, prev := chain(t)
		bad := *prev
		bad.Syn0 = bad.Syn0[:len(bad.Syn0)-1]
		g, err := Generate(winB.Cut(cfg.MinPackets), 1, gt, cfg, TrainOpts{Interner: in, Warm: seed(&bad)})
		if err != nil {
			t.Fatalf("a refused seed must fall back, not fail: %v", err)
		}
		if !strings.Contains(g.WarmFallback, "warm seed unusable") || g.Emb.Model.Warm != nil {
			t.Errorf("fallback %q, warm stats %+v; want the ErrWarmSeed text and a cold model", g.WarmFallback, g.Emb.Model.Warm)
		}
		inH, _ := chain(t)
		cold, space, cov, v := handRun(t, winB, gt, cfg, TrainOpts{Interner: inH})
		if !bytes.Equal(modelBytes(t, g.Emb.Model), modelBytes(t, cold.Model)) {
			t.Error("fallback model bytes differ from a cold train")
		}
		checkLook(t, "fallback", g, space, cov, v)
	})

	t.Run("cancelled context", func(t *testing.T) {
		in, prev := chain(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g, err := Generate(winB.Cut(cfg.MinPackets), 1, gt, cfg, TrainOpts{Context: ctx, Interner: in, Warm: seed(prev)})
		if !errors.Is(err, context.Canceled) || errors.Is(err, w2v.ErrWarmSeed) || g != nil {
			t.Fatalf("cancelled Generate = %v, %v; want context.Canceled and no generation", g, err)
		}
	})

	t.Run("boot equals cycle", func(t *testing.T) {
		if gB == nil {
			t.Skip("no trained generation")
		}
		loaded, err := w2v.Load(bytes.NewReader(modelBytes(t, gB.Emb.Model)))
		if err != nil {
			t.Fatal(err)
		}
		boot := Look(winB.Cut(cfg.MinPackets), 1, EmbeddingFromModel(loaded, winB, cfg), gt, cfg)
		checkLook(t, "boot", boot, gB.Space, gB.Coverage, gB.View)
	})
}

// TestEvalAnchorIsTheWindow: the window's newest event is a one-packet
// sender's, on the UTC day after every trainable sender's last. A generation
// from the window's cut serves the senders, coverage and view Look gives
// over the full snapshot: its eval days end on that newest event, not on
// the trainable trace's own last one.
func TestEvalAnchorIsTheWindow(t *testing.T) {
	out := smallSim(t)
	cfg := fastCfg()
	cfg.W2V.Epochs = 2 // the test compares paths, not accuracy
	first, _ := out.Trace.Span()
	day0 := first - first%86400
	events := out.Trace.Window(day0, day0+3*86400).Events
	w := stream.NewWindow(stream.WindowConfig{MaxEvents: len(events) + 1, MaxAge: -1})
	w.AddBatch(events)
	w.Add(trace.Event{Ts: day0 + 3*86400 + 60, Src: 0xcb007101, Dst: events[0].Dst, Port: 23, Proto: packet.IPProtocolTCP})

	const evalDays = 2
	cut := w.Cut(cfg.MinPackets)
	g, err := Generate(cut, evalDays, labels.Build(cut.Trainable, out.Feeds), cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	full := w.SnapshotActive(1)
	gt := labels.Build(full, out.Feeds)
	emb, err := TrainEmbeddingOpts(full, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, g.Emb.Model), modelBytes(t, emb.Model)) {
		t.Error("model trained on the cut differs from the one trained on the full snapshot")
	}
	space, cov := emb.EvalSpace(full.LastDays(evalDays), nil)
	checkLook(t, "cut", g, space, cov, NewView(space, gt, cfg.KPrime, cfg.W2V.Seed))
	if naive, _ := emb.EvalSpace(cut.Trainable.LastDays(evalDays), nil); sameSpace(naive, space) {
		t.Fatal("the trainable trace's own last days serve the same senders: the test does not exercise the anchor")
	}
}
