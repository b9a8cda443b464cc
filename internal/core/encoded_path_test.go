package core

import (
	"bytes"
	"testing"

	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/w2v"
)

func saveBytes(t *testing.T, m *w2v.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainEmbeddingMatchesStringPath pins that TrainEmbedding's model is
// a function of the corpus's words, not of the interner's ids: the corpus
// spelled out as dotted-quad sentences and re-interned in a fresh id space
// (last appearance first) trains to the same bytes.
func TestTrainEmbeddingMatchesStringPath(t *testing.T) {
	sim := smallSim(t)
	cfg := fastCfg()
	emb, err := TrainEmbedding(sim.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc := w2v.Encoded{Sequences: make([][]int32, len(emb.Corpus.Sequences))}
	ids := make(map[string]int32)
	senders := emb.Corpus.Interner().Strings()
	for i := len(emb.Corpus.Sequences) - 1; i >= 0; i-- {
		toks := emb.Corpus.Sequences[i].Tokens
		seq := make([]int32, len(toks))
		for j := len(toks) - 1; j >= 0; j-- {
			w := senders[toks[j]]
			id, ok := ids[w]
			if !ok {
				id = int32(len(enc.Words))
				ids[w] = id
				enc.Words = append(enc.Words, w)
				enc.Counts = append(enc.Counts, 0)
			}
			enc.Counts[id]++
			seq[j] = id
		}
		enc.Sequences[i] = seq
	}
	ref, err := w2v.TrainEncodedWithOptions(enc, cfg.W2V, w2v.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, emb.Model), saveBytes(t, ref)) {
		t.Fatal("re-interned sentences diverged from the pipeline's model bytes")
	}
}

// TestTrainEmbeddingSharedInterner covers the rolling-retrain regime: two
// trainings over a shared interner keep sender ids stable, and the second
// (id space ⊃ corpus) run matches a fresh-interner run of the same trace.
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
	ref, err := TrainEmbedding(sim.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, emb.Model), saveBytes(t, ref.Model)) {
		t.Fatal("shared-interner run diverged from a fresh-interner run")
	}
}
