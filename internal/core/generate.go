package core

import (
	"context"
	"errors"
	"runtime/pprof"

	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
)

// Generation is one model on its way to a reader — the daemon's gate and
// API server, the batch report, an experiment row: the port tally of its
// served senders, the embedding, its eval-window space and coverage, and
// the one view taken of that space. It holds nothing of the events it was
// made from.
type Generation struct {
	Tally    *cluster.PortTally // the eval senders' packets per port, for View.Profiles
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
// come from cfg. It reads the traces first — the eval senders emb counts
// active, and their port tally over tr — and not after.
func Look(tr, eval *trace.Trace, emb *Embedding, gt *labels.Set, cfg Config) *Generation {
	senders := activeOf(eval.Senders(), emb.Active)
	return look(senders, cluster.NewPortTally(tr, senders), emb, gt, cfg)
}

// look is Look over the eval senders and their tally.
func look(senders []netutil.IPv4, tally *cluster.PortTally, emb *Embedding, gt *labels.Set, cfg Config) *Generation {
	g := &Generation{Tally: tally, Emb: emb}
	g.Space, g.Coverage = emb.spaceOf(senders)
	pprof.Do(context.Background(), pprof.Labels("darkvec_phase", "cluster"), func(context.Context) {
		g.View = NewView(g.Space, gt, cfg.KPrime, cfg.W2V.Seed)
	})
	return g
}

// Generate is the DarkVec pipeline run once (§5–7): train on tr, then Look
// over eval. Everything after training reads of the traces — the corpus,
// the eval senders, their port tally — is taken before training starts, so
// the caller's events are garbage while the model trains if the caller
// holds them no longer. A warm seed the trainer refuses (w2v.ErrWarmSeed)
// forfeits only the speedup: training retries once cold on the same corpus
// and the reason lands in WarmFallback. Any other training error,
// cancellation included, is returned as is.
func Generate(tr, eval *trace.Trace, gt *labels.Set, cfg Config, opts TrainOpts) (*Generation, error) {
	in, err := prepare(tr, cfg, opts)
	if err != nil {
		return nil, err
	}
	senders := activeOf(eval.Senders(), in.active)
	tally := cluster.NewPortTally(tr, senders)
	emb, err := in.train(cfg, opts)
	fallback := ""
	if errors.Is(err, w2v.ErrWarmSeed) {
		fallback = err.Error()
		opts.Warm = nil
		emb, err = in.train(cfg, opts)
	}
	if err != nil {
		return nil, err
	}
	g := look(senders, tally, emb, gt, cfg)
	g.WarmFallback = fallback
	return g, nil
}
