package w2v

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/vecmath"
)

// Config are the training hyper-parameters. Zero values select the defaults
// the paper uses via Gensim.
type Config struct {
	Dim          int    // embedding dimension V (default 50)
	Window       int    // context half-width c (default 25)
	Epochs       int    // full passes over the corpus (default 10)
	Seed         uint64 // PRNG seed (default 1)
	ShrinkWindow bool   // sample effective window uniformly in [1, c] per token (Gensim behaviour)
	PadToken     string // NULL padding word (§5.3); "" disables padding
	CBOW         bool   // train CBOW instead of skip-gram
}

// The rest of §5.3's Gensim defaults, which no caller varies: the learning
// rate decays linearly from startAlpha to minAlpha over the run, and every
// positive pair trains against negative sampled words.
const (
	startAlpha = 0.025
	minAlpha   = 0.0001
	negative   = 5
)

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 50
	}
	if c.Window == 0 {
		c.Window = 25
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Model is a trained embedding. Syn0 is the input-vector matrix, row per
// vocabulary id; Vector slices into it.
type Model struct {
	Vocab   *Vocabulary
	Syn0    []float32     // N x Dim input embeddings (the published vectors)
	syn1    []float32     // N x Dim output weights for negative sampling
	sampler *aliasSampler // unigram alias table, kept for warm-start reuse
	Cfg     Config

	// Pairs is the number of (center, context) positive pairs the final
	// training pass processed per epoch; Table 3 reports its total.
	Pairs int64

	// Perm maps the caller's id space (the corpus interner's) to
	// vocabulary rows, -1 for dropped ids. Recorded by
	// TrainEncodedWithOptions so the next generation can warm-start through
	// a pure integer composition (WarmSeed.PrevPerm); nil on models loaded
	// from disk — Save does not persist it.
	Perm []int32

	// Warm reports what warm seeding did when this model was trained from
	// a WarmSeed; nil for cold trains.
	Warm *WarmStats
}

// TrainOptions extends training with cancellation and warm start. A run
// either completes or returns an error and no model; the way to build on
// earlier work is the previous model (Warm), not a partial run.
type TrainOptions struct {
	// Context cancels training between update batches; the call then
	// returns the context's error. nil means context.Background().
	Context context.Context
	// Warm, when non-nil, seeds the new model from a previous generation
	// and shrinks the epoch budget to the window delta. Failures are tagged
	// ErrWarmSeed so callers can fall back to a cold train.
	Warm *WarmSeed

	// warmOldOf is the precomputed new-row → previous-row mapping the
	// encoded entry points derive by composing id permutations; nil means
	// warmSeedModel falls back to word-string matching.
	warmOldOf []int32
}

// trainPrepared is the training core behind TrainEncodedWithOptions:
// vocabulary and id-encoded sentences in hand, run the epochs. cfg must
// already carry defaults.
func trainPrepared(vocab *Vocabulary, enc [][]int32, totalTokens int64, cfg Config, opts TrainOptions) (*Model, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Dim <= 0 || cfg.Window <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("w2v: invalid dim %d / window %d / epochs %d", cfg.Dim, cfg.Window, cfg.Epochs)
	}
	m := &Model{Vocab: vocab, Cfg: cfg}
	n := vocab.Size() * cfg.Dim
	m.Syn0 = make([]float32, n)
	m.syn1 = make([]float32, n)
	runEpochs := cfg.Epochs
	if ws := opts.Warm; ws != nil {
		st, err := warmSeedModel(m, ws, opts.warmOldOf)
		if err != nil {
			return nil, err
		}
		m.Warm = st
		runEpochs = st.Epochs
	} else {
		r := netutil.NewRand(cfg.Seed)
		for i := range m.Syn0 {
			m.Syn0[i] = (float32(r.Float64()) - 0.5) / float32(cfg.Dim)
		}
	}

	if totalTokens == 0 {
		return nil, errors.New("w2v: no in-vocabulary tokens")
	}

	var sampler *aliasSampler
	if m.Warm != nil && m.Warm.SamplerReused {
		sampler = opts.Warm.Prev.sampler
	} else {
		sampler = newAliasSampler(vocab.counts, 0.75)
	}
	m.sampler = sampler
	padID := int32(-1)
	if cfg.PadToken != "" {
		if id, ok := vocab.ID(cfg.PadToken); ok {
			padID = id
		}
	}
	t := &trainer{
		m:       m,
		sampler: sampler,
		padID:   padID,
		total:   totalTokens * int64(runEpochs),
		lr:      startAlpha,
	}
	if ctx.Done() != nil {
		var stop atomic.Bool
		t.stop = &stop
		defer context.AfterFunc(ctx, func() { stop.Store(true) })()
	}

	for epoch := 0; epoch < runEpochs; epoch++ {
		t.run(enc, netutil.NewRand(cfg.Seed+uint64(epoch)*0x9e37+1))
		if err := ctx.Err(); err != nil {
			// The interrupted epoch's partial updates are discarded with
			// the model.
			return nil, err
		}
	}
	// A warm start on an identical window runs zero epochs; the model is
	// then exactly the seed and there are no pairs to average.
	if runEpochs > 0 {
		m.Pairs = t.pairs / int64(runEpochs)
	}
	return m, nil
}

// trainer carries the state one training run keeps across its epochs.
type trainer struct {
	m       *Model
	sampler *aliasSampler
	padID   int32
	total   int64 // tokens across all epochs, for LR decay

	processed int64   // tokens trained so far
	pairs     int64   // positive pairs trained so far
	lr        float32 // current learning rate

	// stop, when non-nil, is set from the context's goroutine and polled
	// between sentences and update batches; once set the run returns
	// promptly (its partial epoch is discarded).
	stop *atomic.Bool
}

// run trains one epoch over sentences, drawing from r.
func (t *trainer) run(sentences [][]int32, r *netutil.Rand) {
	cfg := t.m.Cfg
	neu1e := make([]float32, cfg.Dim)
	neu1 := make([]float32, cfg.Dim)
	var tokens int64 // this epoch's; the LR steps every 10000 of them

	for _, words := range sentences {
		if t.stop != nil && t.stop.Load() {
			return
		}
		for i := range words {
			tokens++
			if tokens%10000 == 0 {
				if t.stop != nil && t.stop.Load() {
					return
				}
				t.processed += 10000
				frac := float64(t.processed) / float64(t.total)
				if frac > 1 {
					frac = 1
				}
				t.lr = float32(startAlpha*(1-frac) + minAlpha*frac)
			}
			window := cfg.Window
			if cfg.ShrinkWindow {
				window = 1 + r.Intn(cfg.Window)
			}
			if cfg.CBOW {
				t.pairs += t.trainCBOW(words, i, window, t.lr, neu1, neu1e, r)
			} else {
				t.pairs += t.trainSkipGram(words, i, window, t.lr, neu1e, r)
			}
		}
	}
	t.processed += tokens % 10000
}

// contextAt resolves position j of the sentence, honouring NULL padding:
// out-of-range positions return the pad id when padding is enabled, else -1.
func (t *trainer) contextAt(words []int32, j int) int32 {
	if j < 0 || j >= len(words) {
		return t.padID // -1 when padding is off
	}
	return words[j]
}

// trainSkipGram applies one center word's window of SGNS updates and
// returns the number of positive pairs trained.
func (t *trainer) trainSkipGram(words []int32, i, window int, alpha float32, neu1e []float32, r *netutil.Rand) int64 {
	center := words[i]
	dim := t.m.Cfg.Dim
	var pairs int64
	for j := i - window; j <= i+window; j++ {
		if j == i {
			continue
		}
		ctx := t.contextAt(words, j)
		if ctx < 0 {
			continue
		}
		// Following word2vec.c / Gensim: the *context* word's input vector
		// is updated against the *center* word's output weights.
		t.sgnsPair(ctx, center, alpha, neu1e[:dim], r)
		pairs++
	}
	return pairs
}

// sgnsPair performs one positive update plus negative sampled negatives for
// input word a predicting output word b. The dense work runs through the
// vecmath kernels; note the gradient accumulation into neu1e must read
// syn1 before it is updated, which the two Axpy calls preserve.
func (t *trainer) sgnsPair(a, b int32, alpha float32, neu1e []float32, r *netutil.Rand) {
	dim := t.m.Cfg.Dim
	syn0 := t.m.Syn0[int(a)*dim : int(a)*dim+dim]
	for k := range neu1e {
		neu1e[k] = 0
	}
	for d := 0; d <= negative; d++ {
		var target int32
		var label float32
		if d == 0 {
			target, label = b, 1
		} else {
			target = t.sampler.sample(r)
			if target == b {
				continue
			}
			label = 0
		}
		syn1 := t.m.syn1[int(target)*dim : int(target)*dim+dim]
		g := (label - sigmoid(vecmath.Dot(syn0, syn1))) * alpha
		vecmath.Axpy(g, syn1, neu1e)
		vecmath.Axpy(g, syn0, syn1)
	}
	vecmath.Axpy(1, neu1e, syn0)
}

// trainCBOW averages the context vectors to predict the center word.
func (t *trainer) trainCBOW(words []int32, i, window int, alpha float32, neu1, neu1e []float32, r *netutil.Rand) int64 {
	dim := t.m.Cfg.Dim
	for k := 0; k < dim; k++ {
		neu1[k], neu1e[k] = 0, 0
	}
	cw := 0
	for j := i - window; j <= i+window; j++ {
		if j == i {
			continue
		}
		ctx := t.contextAt(words, j)
		if ctx < 0 {
			continue
		}
		vecmath.Axpy(1, t.m.Syn0[int(ctx)*dim:int(ctx)*dim+dim], neu1)
		cw++
	}
	if cw == 0 {
		return 0
	}
	vecmath.Scale(1/float32(cw), neu1)
	center := words[i]
	for d := 0; d <= negative; d++ {
		var target int32
		var label float32
		if d == 0 {
			target, label = center, 1
		} else {
			target = t.sampler.sample(r)
			if target == center {
				continue
			}
			label = 0
		}
		syn1 := t.m.syn1[int(target)*dim : int(target)*dim+dim]
		g := (label - sigmoid(vecmath.Dot(neu1, syn1))) * alpha
		vecmath.Axpy(g, syn1, neu1e)
		vecmath.Axpy(g, neu1, syn1)
	}
	for j := i - window; j <= i+window; j++ {
		if j == i {
			continue
		}
		ctx := t.contextAt(words, j)
		if ctx < 0 {
			continue
		}
		vecmath.Axpy(1, neu1e, t.m.Syn0[int(ctx)*dim:int(ctx)*dim+dim])
	}
	return int64(cw)
}

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.Cfg.Dim }

// Vector returns the embedding of word. The slice aliases the model matrix.
func (m *Model) Vector(word string) ([]float32, bool) {
	id, ok := m.Vocab.ID(word)
	if !ok {
		return nil, false
	}
	dim := m.Cfg.Dim
	return m.Syn0[int(id)*dim : int(id)*dim+dim], true
}

// Words returns the vocabulary in id order.
func (m *Model) Words() []string { return m.Vocab.Words() }
