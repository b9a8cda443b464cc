package experiments

import (
	"fmt"
	"sort"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/federation"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/metrics"
	"github.com/darkvec/darkvec/internal/netutil"
)

// Federation is the Transfer experiment rebuilt on the federated
// architecture: instead of shipping one model across darknets, each /25
// vantage keeps its own daemon — own interner, own id space, own embedding —
// and a degradation-aware aggregator merges their k-NN answers per sender
// (summed votes, exactly federation.MergeAnswers). The question it answers:
// does sharding the telescope across isolated failure domains cost
// classification accuracy? Acceptance: the federated merge stays within 2
// points of the single-darknet baseline.
func (e *Env) Federation() (Result, error) {
	vantages, err := darksim.CarveDarknet(e.Out.Config.Darknet, "A", "B")
	if err != nil {
		return Result{}, err
	}
	views, err := darksim.SplitVantages(e.Full, vantages)
	if err != nil {
		return Result{}, err
	}

	// Baseline: the whole darknet behind one daemon.
	base, err := e.Embedding(core.ServiceDomain, e.Opts.Days)
	if err != nil {
		return Result{}, err
	}
	baseSpace, baseCov := base.EvalSpace(e.Last, e.Active)
	baseRep := core.Evaluate(baseSpace, e.GT, e.Opts.K)

	r := Result{
		ID:     "federation",
		Title:  "Multi-vantage federation vs single darknet (§8 transfer, federated)",
		Header: []string{"configuration", "coverage", "accuracy"},
	}
	r.Rows = append(r.Rows, []string{"single darknet (baseline)", pct(baseCov), f2(baseRep.Accuracy)})

	// Per-sender answers from each vantage daemon. Every vantage trains with
	// its own interner — the id spaces are as disjoint as two real daemons' —
	// so the merge can only work through sender names, the way the
	// aggregator's intern-table mirror aligns them.
	cfg := e.config(core.ServiceDomain, e.Opts.Dim, e.Opts.Window)
	answers := map[string][]federation.VantageAnswer{}
	truth := map[string]string{}
	for _, v := range []string{"A", "B"} {
		view := views[v]
		emb, err := core.TrainEmbeddingOpts(view, cfg, core.TrainOpts{Interner: corpus.NewInterner()})
		if err != nil {
			return Result{}, fmt.Errorf("vantage %s: %w", v, err)
		}
		space, cov := emb.EvalSpace(view.LastDays(1), view.ActiveSenders(cfg.MinPackets))
		rep := core.Evaluate(space, e.GT, e.Opts.K)
		r.Rows = append(r.Rows, []string{"vantage " + v + " alone (/25)", pct(cov), f2(rep.Accuracy)})
		for _, p := range core.Predictions(space, e.GT, e.Opts.K) {
			answers[p.Word] = append(answers[p.Word], federation.VantageAnswer{
				Vantage: v, Class: p.Label, Votes: p.Support, AvgSim: p.AvgSim,
			})
			truth[p.Word] = p.Truth
		}
	}

	// The federated answer: merge per sender across whichever vantages know
	// it — the aggregator's healthy-fleet code path.
	var senders []string
	for w := range answers {
		senders = append(senders, w)
	}
	sort.Strings(senders)
	var truths, preds []string
	for _, w := range senders {
		class, _ := federation.MergeAnswers(answers[w])
		truths = append(truths, truth[w])
		preds = append(preds, class)
	}
	fedRep := metrics.BuildReport(truths, preds, map[string]bool{labels.Unknown: true})

	// Federated coverage against the baseline's eval population: the share
	// of the single-darknet eval senders at least one vantage can answer.
	basePop := 0
	covered := 0
	for _, w := range baseSpace.Words {
		if _, perr := netutil.ParseIPv4(w); perr != nil {
			continue
		}
		basePop++
		if len(answers[w]) > 0 {
			covered++
		}
	}
	fedCov := 0.0
	if basePop > 0 {
		fedCov = float64(covered) / float64(basePop)
	}
	r.Rows = append(r.Rows, []string{"federated merge (A+B)", pct(fedCov), f2(fedRep.Accuracy)})

	both := 0
	for _, a := range answers {
		if len(a) == 2 {
			both++
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d of %d federated senders are answered by both vantages; the rest ride on a single telescope's view",
			both, len(answers)),
		fmt.Sprintf("federated merge is %+.2f points vs the single-darknet baseline (acceptance: within 2)",
			100*(fedRep.Accuracy-baseRep.Accuracy)),
		"each vantage runs its own interner, so id spaces are disjoint — alignment happens by sender name, as in darkfed's intern mirror")
	return r, nil
}
