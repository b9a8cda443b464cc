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

// TestTrainEncodedMatchesStringPath is the issue's byte-identity contract:
// for a fixed seed the pre-encoded path must produce exactly the model the
// string path does, across architectures and vocabulary-filtering modes.
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
	enc := encode(sentences)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			sm, err := Train(sentences, cfg)
			if err != nil {
				t.Fatalf("string path: %v", err)
			}
			em, err := TrainEncoded(enc, cfg)
			if err != nil {
				t.Fatalf("encoded path: %v", err)
			}
			if !bytes.Equal(saveBytes(t, sm), saveBytes(t, em)) {
				t.Fatal("encoded path diverged from string path bytes")
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
	em, err := TrainEncoded(enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Train([][]string{{"x", "y", "x"}, {"y", "x"}}, cfg)
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
	if _, err := TrainEncoded(Encoded{Words: []string{"a"}, Counts: []int64{1, 2}}, cfg); err == nil {
		t.Fatal("mismatched tables must fail")
	}
	if _, err := TrainEncoded(Encoded{}, cfg); err == nil {
		t.Fatal("empty corpus must fail")
	}
	if _, err := TrainEncoded(Encoded{
		Sequences: [][]int32{{0, 9}},
		Words:     []string{"a"},
		Counts:    []int64{1},
	}, cfg); err == nil {
		t.Fatal("out-of-range token id must fail")
	}
	cfg.Epochs = -3
	if _, err := TrainEncoded(encode([][]string{{"a", "b"}}), cfg); err == nil {
		t.Fatal("negative epochs must fail")
	}
}

// TestZeroConfigDeterministic: a Config that names only shape and budget —
// what a library user writes — is the deterministic path, because there is
// no other.
func TestZeroConfigDeterministic(t *testing.T) {
	enc := encode(twoTopicCorpus(64))
	cfg := Config{Dim: 8, Window: 2, Epochs: 2}
	a, err := TrainEncoded(enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainEncoded(enc, cfg)
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
