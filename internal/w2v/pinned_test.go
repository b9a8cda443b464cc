package w2v

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
)

// pinnedCorpus draws 120 sentences of 20–220 tokens over 300 words of a
// 330-entry shared id table, skewed toward low ids so frequencies differ.
// retired replaces words w0..w<retired-1> by w300..: pinnedCorpus(30) is
// the next window of pinnedCorpus(0) under one interner, sharing 90 % of
// its words. An epoch is ≈ 14k tokens, so every epoch crosses a
// learning-rate step.
func pinnedCorpus(retired int32) Encoded {
	const table, pool = 330, 300
	enc := Encoded{Words: make([]string, table), Counts: make([]int64, table)}
	for i := range enc.Words {
		enc.Words[i] = fmt.Sprintf("w%d", i)
	}
	r := netutil.NewRand(7)
	for s := 0; s < 120; s++ {
		seq := make([]int32, 20+r.Intn(201))
		for i := range seq {
			id := int32(r.Float64() * r.Float64() * pool)
			if id < retired {
				id += pool
			}
			seq[i] = id
			enc.Counts[id]++
		}
		enc.Sequences = append(enc.Sequences, seq)
	}
	return enc
}

// TestTrainBytesPinned holds the trainer to the bytes it produced before
// it became the only path: the constants were recorded at commit 4b7490c
// in its single-worker mode, on the configurations the repo trains with.
// They are amd64's: the compiler may fuse the kernels' multiply-adds
// elsewhere.
func TestTrainBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("model bytes were recorded on amd64")
	}
	economy := Config{Dim: 32, Window: 15, Epochs: 3, Seed: 11, ShrinkWindow: true, PadToken: "NULL"}
	cases := []struct {
		name   string
		cfg    Config
		warm   bool // seed from an economy model of the first window, train the second
		sha    string
		pairs  int64
		epochs int
	}{
		{"economy", economy, false, "5a9aeb8223c3b9e26404d1c170f8bee55c20ffdde495f889f26093b6bad6e9ca", 217753, 0},
		{"paper", Config{Dim: 50, Window: 25, Epochs: 10, Seed: 11, ShrinkWindow: true, PadToken: "NULL"}, false, "f886afd687eaffe6541c7d6d9e4b97a5781eb2afd3188c0106ade5f6eff6e4a8", 354283, 0},
		{"cbow", Config{Dim: 16, Window: 5, Epochs: 4, Seed: 11, CBOW: true}, false, "141557cbac9b5fe292ba084f5b91168f63b6e27d52316fa62edd1e2b7b244268", 132650, 0},
		{"window-1-no-pad", Config{Dim: 16, Window: 1, Epochs: 5, Seed: 11}, false, "4c2b50c152be693b197b277e992aae64d79b77d78c272328e5fcee50c5ac9174", 27010, 0},
		{"warm", economy, true, "e4b4494e664cb7fdf5095a80f2e1f13eeca8b9497b742d421932987673dfa724", 217317, 2},
	}
	first, second := pinnedCorpus(0), pinnedCorpus(30)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, opts := first, TrainOptions{}
			if tc.warm {
				prev, err := TrainEncodedWithOptions(first, economy, TrainOptions{})
				if err != nil {
					t.Fatal(err)
				}
				enc, opts.Warm = second, &WarmSeed{Prev: prev, PrevPerm: prev.Perm}
			}
			m, err := TrainEncodedWithOptions(enc, tc.cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(saveBytes(t, m))
			if got := hex.EncodeToString(sum[:]); got != tc.sha || m.Pairs != tc.pairs {
				t.Errorf("sha256 %s pairs %d, want %s / %d", got, m.Pairs, tc.sha, tc.pairs)
			}
			if tc.warm && m.Warm.Epochs != tc.epochs {
				t.Errorf("warm ran %d epochs, want %d", m.Warm.Epochs, tc.epochs)
			}
		})
	}
}
