package w2v

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// encode interns sentences in first-appearance order — the id discipline
// the corpus builder uses — returning the Encoded equivalent of sentences.
func encode(sentences [][]string) Encoded {
	ids := make(map[string]int32)
	var enc Encoded
	for _, s := range sentences {
		seq := make([]int32, 0, len(s))
		for _, w := range s {
			id, ok := ids[w]
			if !ok {
				id = int32(len(enc.Words))
				ids[w] = id
				enc.Words = append(enc.Words, w)
				enc.Counts = append(enc.Counts, 0)
			}
			enc.Counts[id]++
			seq = append(seq, id)
		}
		enc.Sequences = append(enc.Sequences, seq)
	}
	return enc
}

// train is the suite's sentence front: sentences interned by encode,
// trained through the one entry.
func train(sentences [][]string, cfg Config) (*Model, error) {
	return TrainEncodedWithOptions(encode(sentences), cfg, TrainOptions{})
}

// shuffleIDs re-encodes enc under another id table: ids reversed, with a
// zero-count word interleaved after every real one, as a long-lived
// interner's table looks to a later corpus.
func shuffleIDs(enc Encoded) Encoded {
	n := len(enc.Words)
	newID := func(id int32) int32 { return int32(2 * (n - 1 - int(id))) }
	out := Encoded{Words: make([]string, 2*n), Counts: make([]int64, 2*n)}
	for id, w := range enc.Words {
		out.Words[newID(int32(id))] = w
		out.Counts[newID(int32(id))] = enc.Counts[id]
		out.Words[newID(int32(id))+1] = "spare-" + w
	}
	for _, s := range enc.Sequences {
		seq := make([]int32, len(s))
		for i, id := range s {
			seq[i] = newID(id)
		}
		out.Sequences = append(out.Sequences, seq)
	}
	return out
}

// TestTrainEncodedMatchesStringPath: a model is a function of the
// sentences' words, not of the caller's ids. The sentence front (train,
// first-appearance ids) and the same corpus under a reversed id table with
// spare zero-count ids save identical bytes, across architectures and
// vocabulary-filtering modes.
func TestTrainEncodedMatchesStringPath(t *testing.T) {
	sentences := [][]string{
		{"a", "b", "c", "a", "d"},
		{"b", "c", "e", "b"},
		{"f", "a", "a", "c", "g", "h"},
		{"rare"},
		{"d", "e", "f", "g", "h", "a", "b"},
	}
	base := Config{Dim: 8, Window: 2, Epochs: 2, Seed: 7}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"skipgram-ns", func(c *Config) {}},
		{"cbow", func(c *Config) { c.CBOW = true }},
		{"shrink-window", func(c *Config) { c.ShrinkWindow = true }},
		{"pad-present", func(c *Config) { c.PadToken = "a" }},
		{"pad-synthetic", func(c *Config) { c.PadToken = "<nul>" }},
	}
	shuffled := shuffleIDs(encode(sentences))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			sm, err := train(sentences, cfg)
			if err != nil {
				t.Fatalf("sentence front: %v", err)
			}
			em, err := TrainEncodedWithOptions(shuffled, cfg, TrainOptions{})
			if err != nil {
				t.Fatalf("shuffled ids: %v", err)
			}
			if !bytes.Equal(saveBytes(t, sm), saveBytes(t, em)) {
				t.Fatal("the caller's id order changed the model bytes")
			}
		})
	}
}

// TestTrainEncodedZeroCountWords covers the rolling-window regime: the
// interner table carries ids for senders absent from this corpus. They
// must be filtered from the vocabulary exactly like never-seen words.
func TestTrainEncodedZeroCountWords(t *testing.T) {
	enc := Encoded{
		Sequences: [][]int32{{1, 3, 1}, {3, 1}},
		Words:     []string{"gone", "x", "also-gone", "y"},
		Counts:    []int64{0, 3, 0, 2},
	}
	cfg := Config{Dim: 4, Window: 2, Epochs: 1, Seed: 3}
	em, err := TrainEncodedWithOptions(enc, cfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := train([][]string{{"x", "y", "x"}, {"y", "x"}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, sm), saveBytes(t, em)) {
		t.Fatal("zero-count words perturbed the model")
	}
	if _, ok := em.Vocab.ID("gone"); ok {
		t.Fatal("zero-count word leaked into the vocabulary")
	}
}

func TestTrainEncodedErrors(t *testing.T) {
	cfg := Config{Dim: 4, Window: 2, Epochs: 1}
	if _, err := TrainEncodedWithOptions(Encoded{Words: []string{"a"}, Counts: []int64{1, 2}}, cfg, TrainOptions{}); err == nil {
		t.Fatal("mismatched tables must fail")
	}
	if _, err := TrainEncodedWithOptions(Encoded{}, cfg, TrainOptions{}); err == nil {
		t.Fatal("empty corpus must fail")
	}
	if _, err := TrainEncodedWithOptions(Encoded{
		Sequences: [][]int32{{0, 9}},
		Words:     []string{"a"},
		Counts:    []int64{1},
	}, cfg, TrainOptions{}); err == nil {
		t.Fatal("out-of-range token id must fail")
	}
	cfg.Epochs = -3
	if _, err := TrainEncodedWithOptions(encode([][]string{{"a", "b"}}), cfg, TrainOptions{}); err == nil {
		t.Fatal("negative epochs must fail")
	}
}

// TestZeroConfigDeterministic: a Config that names only shape and budget —
// what a library user writes — is the deterministic path, because there is
// no other.
func TestZeroConfigDeterministic(t *testing.T) {
	enc := encode(twoTopicCorpus(64))
	cfg := Config{Dim: 8, Window: 2, Epochs: 2}
	a, err := TrainEncodedWithOptions(enc, cfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainEncodedWithOptions(enc, cfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, a), saveBytes(t, b)) {
		t.Fatal("two runs of one corpus and one config saved different bytes")
	}
}

func TestCancelBeforeFirstEpoch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TrainEncodedWithOptions(encode(smallCorpus()), smallConfig(), TrainOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestCancelMidEpoch(t *testing.T) {
	// Cancellation must also stop a run that is inside its epochs; the
	// result is discarded so only termination matters. Run under -race:
	// the stop flag is set from the context's goroutine.
	// The epoch budget is one no run finishes, so whenever the cancel
	// lands — before, inside or between epochs — the outcome is the same.
	cfg := smallConfig()
	cfg.Epochs = 1 << 30
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(5*time.Millisecond, cancel).Stop()
	_, err := TrainEncodedWithOptions(encode(smallCorpus()), cfg, TrainOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}
