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

// Look projects an embedding over the served senders — c's trainable
// senders of its final evalDays days (Cut.LastDays) — with Fig 6's
// coverage, and takes the one view of that space (§7): k′ and the
// clustering seed come from cfg. It reads the cut first — the eval senders
// and their port tally — and not after.
func Look(c trace.Cut, evalDays int, emb *Embedding, gt *labels.Set, cfg Config) *Generation {
	senders := c.LastDays(evalDays).Senders()
	return look(senders, cluster.NewPortTally(c.Trainable, senders), emb, gt, cfg)
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

// Generate is the DarkVec pipeline run once (§5–7): train on c's trainable
// events, then Look over its final evalDays days. Everything after training
// reads of the cut — the corpus, the eval senders, their port tally — is
// taken before training starts, so the caller's events are garbage while
// the model trains if the caller holds them no longer. A warm seed the
// trainer refuses (w2v.ErrWarmSeed) forfeits only the speedup: training
// retries once cold on the same corpus and the reason lands in
// WarmFallback. Any other training error, cancellation included, is
// returned as is.
func Generate(c trace.Cut, evalDays int, gt *labels.Set, cfg Config, opts TrainOpts) (*Generation, error) {
	in, err := prepare(c, cfg, opts)
	if err != nil {
		return nil, err
	}
	senders := c.LastDays(evalDays).Senders()
	tally := cluster.NewPortTally(c.Trainable, senders)
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
