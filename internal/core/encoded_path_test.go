package core

import (
	"bytes"
	"testing"

	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/w2v"
)

// TestTrainEmbeddingMatchesStringPath pins the pipeline-level byte-identity
// contract: TrainEmbedding (which now rides the interned integer token
// path) must produce exactly the model that direct string-path training on
// the same corpus does, for a fixed seed.
func TestTrainEmbeddingMatchesStringPath(t *testing.T) {
	sim := smallSim(t)
	cfg := fastCfg()
	emb, err := TrainEmbedding(sim.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w2v.Train(emb.Corpus.Sentences(), cfg.W2V)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := emb.Model.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("integer token path diverged from string-path model bytes")
	}
}

// TestTrainEmbeddingSharedInterner covers the rolling-retrain regime: two
// trainings over a shared interner must keep sender ids stable and still
// match the string path on the second (id space ⊃ corpus) run.
func TestTrainEmbeddingSharedInterner(t *testing.T) {
	sim := smallSim(t)
	cfg := fastCfg()
	in := corpus.NewInterner()
	day := sim.Trace.FirstDays(1)
	if _, err := TrainEmbeddingOpts(day, cfg, TrainOpts{Interner: in}); err != nil {
		t.Fatal(err)
	}
	grown := in.Len()
	if grown == 0 {
		t.Fatal("first run interned nothing")
	}
	emb, err := TrainEmbeddingOpts(sim.Trace, cfg, TrainOpts{Interner: in})
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() < grown {
		t.Fatal("interner shrank")
	}
	ref, err := w2v.Train(emb.Corpus.Sentences(), cfg.W2V)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := emb.Model.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("shared-interner run diverged from string-path model bytes")
	}
}
