package w2v

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// window builds a deterministic synthetic corpus of nSent sentences drawn
// from a pool of senders offset..offset+pool-1, as interned sequences.
// Shifting offset slides the "window": senders below the new offset vanish,
// senders above the old ceiling appear, and the overlap survives.
func window(offset, pool, nSent, sentLen int) [][]string {
	sentences := make([][]string, nSent)
	for s := 0; s < nSent; s++ {
		sent := make([]string, sentLen)
		for i := 0; i < sentLen; i++ {
			// Deterministic mix so co-occurrence structure is non-trivial.
			id := offset + (s*7+i*3)%pool
			sent[i] = "s" + itoa(id)
		}
		sentences[s] = sent
	}
	return sentences
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// sharedEncode interns sentence batches through one shared id table — the
// daemon's single-interner discipline — returning one Encoded per batch.
func sharedEncode(batches ...[][]string) []Encoded {
	ids := make(map[string]int32)
	var words []string
	out := make([]Encoded, len(batches))
	for bi, sentences := range batches {
		counts := make([]int64, len(words))
		var seqs [][]int32
		for _, s := range sentences {
			seq := make([]int32, 0, len(s))
			for _, w := range s {
				id, ok := ids[w]
				if !ok {
					id = int32(len(words))
					ids[w] = id
					words = append(words, w)
					counts = append(counts, 0)
				}
				for int(id) >= len(counts) {
					counts = append(counts, 0)
				}
				counts[id]++
				seq = append(seq, id)
			}
			seqs = append(seqs, seq)
		}
		out[bi] = Encoded{Sequences: seqs, Words: append([]string(nil), words...), Counts: counts}
	}
	// Every batch shares the final word table; earlier batches keep their
	// own counts but must cover the full table with zeros.
	for bi := range out {
		out[bi].Words = append([]string(nil), words...)
		for len(out[bi].Counts) < len(words) {
			out[bi].Counts = append(out[bi].Counts, 0)
		}
	}
	return out
}

var warmCfg = Config{Dim: 12, Window: 3, Epochs: 6, Seed: 9}

// TestWarmIdenticalWindowZeroEpochs is the determinism pin: a warm retrain
// on a byte-identical window must run zero epochs and return exactly the
// seed.
func TestWarmIdenticalWindowZeroEpochs(t *testing.T) {
	encs := sharedEncode(window(0, 40, 30, 12), window(0, 40, 30, 12))
	prev, err := TrainEncodedWithOptions(encs[0], warmCfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainEncodedWithOptions(encs[1], warmCfg, TrainOptions{Warm: &WarmSeed{Prev: prev, PrevPerm: prev.Perm}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Warm == nil {
		t.Fatal("no warm stats")
	}
	if m.Warm.Epochs != 0 || m.Warm.DeltaTokens != 0 {
		t.Fatalf("identical window ran %d epochs (delta %d tokens)", m.Warm.Epochs, m.Warm.DeltaTokens)
	}
	if m.Warm.Fresh != 0 || m.Warm.Retired != 0 {
		t.Fatalf("identical window reported %d fresh / %d retired rows", m.Warm.Fresh, m.Warm.Retired)
	}
	if !m.Warm.SamplerReused {
		t.Error("identical vocabulary did not reuse the alias sampler")
	}
	if !bytes.Equal(saveBytes(t, m), saveBytes(t, prev)) {
		t.Fatal("zero-epoch warm output != previous generation bytes")
	}
}

// TestWarmOverlapSeedsAndBudgets checks the rolling-window case: survivors
// are seeded from the previous rows, new senders get fresh vectors, the
// epoch budget shrinks with the delta, and the id-composition path agrees
// byte-for-byte with the string-matching fallback.
func TestWarmOverlapSeedsAndBudgets(t *testing.T) {
	encs := sharedEncode(window(0, 40, 30, 12), window(4, 40, 30, 12))
	prev, err := TrainEncodedWithOptions(encs[0], warmCfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	perm := TrainOptions{Warm: &WarmSeed{Prev: prev, PrevPerm: prev.Perm}}
	byID, err := TrainEncodedWithOptions(encs[1], warmCfg, perm)
	if err != nil {
		t.Fatal(err)
	}
	byWord, err := TrainEncodedWithOptions(encs[1], warmCfg, TrainOptions{Warm: &WarmSeed{Prev: prev}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, byID), saveBytes(t, byWord)) {
		t.Fatal("id-composition mapping diverged from the word-match fallback")
	}
	st := byID.Warm
	if st.Fresh != 4 || st.Retired != 4 {
		t.Fatalf("window shift by 4: got %d fresh / %d retired rows", st.Fresh, st.Retired)
	}
	if st.Epochs < 1 || st.Epochs >= warmCfg.Epochs {
		t.Fatalf("delta-sized budget should be in [1, %d): ran %d (delta frac %.3f)",
			warmCfg.Epochs, st.Epochs, st.DeltaFrac)
	}
	want := int(math.Ceil(st.DeltaFrac * float64(warmCfg.Epochs)))
	if st.Epochs != want {
		t.Fatalf("epochs %d != ceil(%.3f * %d) = %d", st.Epochs, st.DeltaFrac, warmCfg.Epochs, want)
	}
	if !st.OutputSeeded {
		t.Error("previous model carries syn1 but OutputSeeded is false")
	}
}

// TestWarmRetiresVanishedSenders: senders absent from the new window must
// have no row in the new model at all.
func TestWarmRetiresVanishedSenders(t *testing.T) {
	encs := sharedEncode(window(0, 40, 30, 12), window(10, 40, 30, 12))
	prev, err := TrainEncodedWithOptions(encs[0], warmCfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainEncodedWithOptions(encs[1], warmCfg, TrainOptions{Warm: &WarmSeed{Prev: prev, PrevPerm: prev.Perm}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w := "s" + itoa(i)
		if _, ok := prev.Vector(w); !ok {
			t.Fatalf("%s missing from the previous generation", w)
		}
		if _, ok := m.Vector(w); ok {
			t.Fatalf("vanished sender %s still has a vector after warm retrain", w)
		}
	}
	if m.Warm.Retired != 10 {
		t.Fatalf("expected 10 retired rows, got %d", m.Warm.Retired)
	}
}

// TestWarmSeedErrors enumerates the fallback triggers: every corrupt or
// mismatched seed must surface as ErrWarmSeed (so the daemon can fall back
// to cold), never as a silent mis-seed or a panic.
func TestWarmSeedErrors(t *testing.T) {
	encs := sharedEncode(window(0, 20, 20, 10), window(2, 20, 20, 10))
	prev, err := TrainEncodedWithOptions(encs[0], warmCfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		ws   *WarmSeed
	}{
		{"nil-prev", warmCfg, &WarmSeed{}},
		{"dim-mismatch", func() Config { c := warmCfg; c.Dim = 8; return c }(), &WarmSeed{Prev: prev}},
		{"truncated-syn0", warmCfg, func() *WarmSeed {
			bad := *prev
			bad.Syn0 = bad.Syn0[:len(bad.Syn0)-warmCfg.Dim]
			return &WarmSeed{Prev: &bad}
		}()},
		{"mapping-out-of-range", warmCfg, func() *WarmSeed {
			perm := append([]int32(nil), prev.Perm...)
			for i := range perm {
				if perm[i] >= 0 {
					perm[i] = int32(prev.Vocab.Size()) + 5
				}
			}
			return &WarmSeed{Prev: prev, PrevPerm: perm}
		}()},
		{"id-space-mismatch", warmCfg, func() *WarmSeed {
			// Swap two mapped rows: words no longer line up.
			perm := append([]int32(nil), prev.Perm...)
			a, b := -1, -1
			for i := range perm {
				if perm[i] >= 0 {
					if a < 0 {
						a = i
					} else {
						b = i
						break
					}
				}
			}
			perm[a], perm[b] = perm[b], perm[a]
			return &WarmSeed{Prev: prev, PrevPerm: perm}
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := TrainEncodedWithOptions(encs[1], tc.cfg, TrainOptions{Warm: tc.ws})
			if !errors.Is(err, ErrWarmSeed) {
				t.Fatalf("want ErrWarmSeed, got %v", err)
			}
		})
	}
}

// TestWarmFromLoadedModel exercises the disk-boot path: Save drops syn1 and
// Perm, so a store-loaded previous generation warm-starts through word
// matching with input vectors only — and must still succeed.
func TestWarmFromLoadedModel(t *testing.T) {
	encs := sharedEncode(window(0, 20, 20, 10), window(2, 20, 20, 10))
	prev, err := TrainEncodedWithOptions(encs[0], warmCfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainEncodedWithOptions(encs[1], warmCfg, TrainOptions{Warm: &WarmSeed{Prev: loaded}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Warm.OutputSeeded {
		t.Error("loaded model has no syn1; OutputSeeded should be false")
	}
	if m.Warm.Seeded == 0 {
		t.Fatal("no rows seeded from the loaded model")
	}
}

// TestWarmQualityParity trains warm vs cold on the same shifted window and
// requires the warm model to stay functional: same vocabulary, and the
// surviving heavy senders keep finite, non-degenerate vectors.
func TestWarmQualityParity(t *testing.T) {
	encs := sharedEncode(window(0, 40, 40, 12), window(4, 40, 40, 12))
	prev, err := TrainEncodedWithOptions(encs[0], warmCfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := TrainEncodedWithOptions(encs[1], warmCfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := TrainEncodedWithOptions(encs[1], warmCfg, TrainOptions{Warm: &WarmSeed{Prev: prev, PrevPerm: prev.Perm}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Vocab.Size() != cold.Vocab.Size() {
		t.Fatalf("warm vocab %d != cold vocab %d", warm.Vocab.Size(), cold.Vocab.Size())
	}
	for i := range warm.Vocab.words {
		if warm.Vocab.words[i] != cold.Vocab.words[i] {
			t.Fatalf("vocab row %d: warm %q != cold %q", i, warm.Vocab.words[i], cold.Vocab.words[i])
		}
	}
	for _, v := range warm.Syn0 {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("warm model contains non-finite weights")
		}
	}
}
