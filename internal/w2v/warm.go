package w2v

import (
	"errors"
	"fmt"
	"math"

	"github.com/darkvec/darkvec/internal/netutil"
)

// ErrWarmSeed tags every warm-start validation failure: a nil or
// dimension-mismatched previous model, a corrupted weight matrix, an
// id-space mapping that points outside the previous vocabulary, or a word
// disagreement that proves the mapping belongs to a different interner.
// Callers are expected to errors.Is against it and fall back to a cold
// (from-scratch) train — a bad warm seed must never fail the retrain
// cycle, only forfeit the speedup.
var ErrWarmSeed = errors.New("w2v: warm seed unusable")

// WarmSeed asks the trainer to start from a previous generation's weights
// instead of random initialization. Rows of the new vocabulary that also
// existed in the previous model are copied from it (input vectors always,
// output weights when the previous model still carries them); genuinely
// new words get the usual random init; words that vanished from the window
// are retired by omission — they simply have no row in the new model, so
// they can never surface as k-NN neighbours again.
//
// The epoch budget is then sized to the window delta: the fraction of
// corpus mass contributed by new words, count changes on surviving words,
// and vanished words decides how many of Config.Epochs actually run
// (always at least 1 when anything changed, exactly 0 when the window is
// byte-identical — in which case the output equals the seed).
//
// The sigmoid lookup table is package-level and always shared; the
// negative-sampling alias table is additionally reused from the previous
// model when the vocabulary (words and counts) is unchanged, and rebuilt
// incrementally from the new counts otherwise.
type WarmSeed struct {
	// Prev is the previous generation. Required. Must have the same
	// dimension as the new config.
	Prev *Model

	// PrevPerm maps the caller's interner ids to Prev's vocabulary rows —
	// the Perm the previous training recorded. When set, the
	// old↔new row mapping is a pure integer composition with the new
	// permutation (zero string hashing); every mapped row is still
	// verified word-for-word so an id-space mismatch (a rebuilt interner)
	// surfaces as ErrWarmSeed instead of silently seeding garbage. When
	// nil, surviving rows are matched through Prev's vocabulary map —
	// the fallback for models loaded from disk, where Perm is not
	// persisted.
	PrevPerm []int32
}

// WarmStats reports what warm seeding actually did; the trained model
// carries it in Model.Warm.
type WarmStats struct {
	Seeded        int     // vocabulary rows copied from the previous model
	Fresh         int     // rows randomly initialized (genuinely new words)
	Retired       int     // previous rows with no new home (vanished words)
	DeltaTokens   int64   // corpus mass attributed to the window delta
	DeltaFrac     float64 // DeltaTokens / new corpus total, clamped to [0,1]
	Epochs        int     // epochs actually run (0 on an identical window)
	OutputSeeded  bool    // previous output weights (syn1) were available
	SamplerReused bool    // unigram alias table reused from the previous model
}

// warmSeedModel validates ws against the freshly allocated model m, copies
// surviving rows, random-inits fresh rows, and computes the delta-sized
// epoch budget. m.Syn0 and m.syn1 must be allocated (zeroed) and m.Vocab
// set. oldOf, when non-nil, maps new vocabulary rows to previous rows
// (-1 = new word); when nil the mapping is derived from word strings.
func warmSeedModel(m *Model, ws *WarmSeed, oldOf []int32) (*WarmStats, error) {
	cfg := m.Cfg
	prev := ws.Prev
	if prev == nil || prev.Vocab == nil {
		return nil, fmt.Errorf("%w: no previous model", ErrWarmSeed)
	}
	if prev.Cfg.Dim != cfg.Dim {
		return nil, fmt.Errorf("%w: dimension %d != previous %d", ErrWarmSeed, cfg.Dim, prev.Cfg.Dim)
	}
	dim := cfg.Dim
	vocab := m.Vocab
	if len(prev.Syn0) != prev.Vocab.Size()*dim {
		return nil, fmt.Errorf("%w: previous Syn0 has %d floats for %d rows x %d dims",
			ErrWarmSeed, len(prev.Syn0), prev.Vocab.Size(), dim)
	}
	if prev.syn1 != nil && len(prev.syn1) != len(prev.Syn0) {
		return nil, fmt.Errorf("%w: previous syn1 has %d floats, Syn0 has %d",
			ErrWarmSeed, len(prev.syn1), len(prev.Syn0))
	}
	if oldOf == nil {
		oldOf = warmMapByWord(vocab, prev)
	}
	if len(oldOf) != vocab.Size() {
		return nil, fmt.Errorf("%w: mapping covers %d of %d vocabulary rows", ErrWarmSeed, len(oldOf), vocab.Size())
	}
	// Verify every mapped row before touching the matrices: an id-space
	// mismatch (e.g. a rebuilt interner behind a stale PrevPerm) must
	// surface as a typed error, not as silently garbage-seeded vectors.
	for i, old := range oldOf {
		if old < 0 {
			continue
		}
		if int(old) >= prev.Vocab.Size() {
			return nil, fmt.Errorf("%w: row %d maps to previous row %d outside the %d-row vocabulary",
				ErrWarmSeed, i, old, prev.Vocab.Size())
		}
		if prev.Vocab.words[old] != vocab.words[i] {
			return nil, fmt.Errorf("%w: id-space mismatch at row %d (%q != previous %q)",
				ErrWarmSeed, i, vocab.words[i], prev.Vocab.words[old])
		}
	}

	st := &WarmStats{OutputSeeded: prev.syn1 != nil}
	// Fresh rows draw from the same seeded stream cold init uses, so a
	// fixed (seed, window) pair fully determines the warm starting point.
	r := netutil.NewRand(cfg.Seed)
	var deltaTokens, survivedOld int64
	for i := 0; i < vocab.Size(); i++ {
		row := m.Syn0[i*dim : i*dim+dim]
		old := oldOf[i]
		if old < 0 {
			for k := range row {
				row[k] = (float32(r.Float64()) - 0.5) / float32(dim)
			}
			st.Fresh++
			deltaTokens += vocab.counts[i]
			continue
		}
		copy(row, prev.Syn0[int(old)*dim:int(old)*dim+dim])
		if prev.syn1 != nil {
			copy(m.syn1[i*dim:i*dim+dim], prev.syn1[int(old)*dim:int(old)*dim+dim])
		}
		d := vocab.counts[i] - prev.Vocab.counts[old]
		if d < 0 {
			d = -d
		}
		deltaTokens += d
		survivedOld += prev.Vocab.counts[old]
		st.Seeded++
	}
	st.Retired = prev.Vocab.Size() - st.Seeded
	// Mass that left the window is change too: a vanished heavy hitter
	// reshapes every context it used to dominate.
	if vanished := prev.Vocab.total - survivedOld; vanished > 0 {
		deltaTokens += vanished
	}
	st.DeltaTokens = deltaTokens
	if vocab.total > 0 {
		st.DeltaFrac = float64(deltaTokens) / float64(vocab.total)
		if st.DeltaFrac > 1 {
			st.DeltaFrac = 1
		}
	}
	switch {
	case deltaTokens == 0:
		st.Epochs = 0
	default:
		e := int(math.Ceil(st.DeltaFrac * float64(cfg.Epochs)))
		if e < 1 {
			e = 1
		}
		if e > cfg.Epochs {
			e = cfg.Epochs
		}
		st.Epochs = e
	}
	// The alias table depends only on (words, counts); identical
	// vocabulary means the previous table is exactly the new one, and it
	// is immutable after construction so sharing across models is safe.
	if prev.sampler != nil && sameVocab(vocab, prev.Vocab) {
		st.SamplerReused = true
	}
	return st, nil
}

// warmMapByWord derives the new-row → previous-row mapping through the
// previous vocabulary's word map — the string fallback used when no
// PrevPerm is available (e.g. the previous model was loaded from disk).
func warmMapByWord(vocab *Vocabulary, prev *Model) []int32 {
	oldOf := make([]int32, vocab.Size())
	for i, w := range vocab.words {
		if id, ok := prev.Vocab.ID(w); ok {
			oldOf[i] = id
		} else {
			oldOf[i] = -1
		}
	}
	return oldOf
}

// sameVocab reports whether two vocabularies have identical rows — same
// words, same counts, same order.
func sameVocab(a, b *Vocabulary) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] || a.counts[i] != b.counts[i] {
			return false
		}
	}
	return true
}
