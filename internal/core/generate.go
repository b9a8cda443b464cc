package core

import (
	"context"
	"errors"
	"runtime/pprof"

	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// Generation is one model on its way to a reader — the daemon's gate and
// API server, the batch report, an experiment row: the trace it describes,
// the embedding, its eval-window space and coverage, and the one view taken
// of that space.
type Generation struct {
	Trace    *trace.Trace
	Emb      *Embedding
	Space    *embed.Space
	Coverage float64
	View     *View
	// WarmFallback is why a requested warm seed was refused and the model
	// trained cold instead; "" when none was requested or it was used.
	WarmFallback string
}

// Look projects an embedding over eval, the sub-trace of tr whose senders
// are served — tr.LastDays(n) for the final n days — with Fig 6's coverage,
// and takes the one view of that space (§7): k′ and the clustering seed
// come from cfg.
func Look(tr, eval *trace.Trace, emb *Embedding, gt *labels.Set, cfg Config) *Generation {
	g := &Generation{Trace: tr, Emb: emb}
	g.Space, g.Coverage = emb.EvalSpace(eval, nil)
	pprof.Do(context.Background(), pprof.Labels("darkvec_phase", "cluster"), func(context.Context) {
		g.View = NewView(g.Space, gt, cfg.KPrime, cfg.W2V.Seed)
	})
	return g
}

// Generate is the DarkVec pipeline run once (§5–7): train on tr, then Look
// over eval. A warm seed the trainer refuses (w2v.ErrWarmSeed) forfeits only
// the speedup: training retries once cold and the reason lands in
// WarmFallback. Any other training error, cancellation included, is
// returned as is.
func Generate(tr, eval *trace.Trace, gt *labels.Set, cfg Config, opts TrainOpts) (*Generation, error) {
	emb, err := TrainEmbeddingOpts(tr, cfg, opts)
	fallback := ""
	if errors.Is(err, w2v.ErrWarmSeed) {
		fallback = err.Error()
		opts.Warm = nil
		emb, err = TrainEmbeddingOpts(tr, cfg, opts)
	}
	if err != nil {
		return nil, err
	}
	g := Look(tr, eval, emb, gt, cfg)
	g.WarmFallback = fallback
	return g, nil
}
