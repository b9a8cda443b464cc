package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/darkvec/darkvec/internal/baseline"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/dante"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/ip2vec"
	"github.com/darkvec/darkvec/internal/knn"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/metrics"
)

// evaluateEmbedding projects the last day through an embedding and runs the
// Leave-One-Out k-NN protocol, returning the report and the coverage of the
// labeled evaluation population.
func (e *Env) evaluateEmbedding(emb *core.Embedding) (metrics.Report, float64) {
	space, cov := emb.EvalSpace(e.Last, e.Active)
	return core.Evaluate(space, e.GT, e.Opts.K), cov
}

// Table6 reproduces the baseline: a 7-NN over per-class top-5-port traffic
// fractions, evaluated Leave-One-Out on the last day's active senders.
func (e *Env) Table6() (Result, error) {
	fs := baseline.Build(e.Last, e.GT, e.Active)
	rep := knn.Evaluate(fs.Space, fs.Labels, e.Opts.K, labels.Unknown)
	r := reportResult("table6", "Baseline 7-NN on port-fraction features", rep)
	r.Notes = append(r.Notes,
		fmt.Sprintf("feature dimensions (union of per-class top-5 ports): %d", len(fs.Ports)),
		fmt.Sprintf("accuracy %.2f — the paper's baseline is similarly weak (most classes < 0.6 F1)", rep.Accuracy))
	return r, nil
}

// reportResult converts a classification report into a Result.
func reportResult(id, title string, rep metrics.Report) Result {
	r := Result{
		ID:     id,
		Title:  title,
		Header: []string{"class", "precision", "recall", "f-score", "support"},
	}
	for _, c := range rep.Classes {
		p, f := "–", "–"
		if !math.IsNaN(c.Precision) {
			p = f2(c.Precision)
		}
		if !math.IsNaN(c.FScore) {
			f = f2(c.FScore)
		}
		r.Rows = append(r.Rows, []string{c.Label, p, f2(c.Recall), f, itoa(c.Support)})
	}
	r.Rows = append(r.Rows, []string{"accuracy", "", f2(rep.Accuracy), "", itoa(rep.Total)})
	return r
}

// Table3 compares DarkVec against IP2VEC and DANTE on a short and the full
// training window: skip-gram counts, wall-clock training time and accuracy.
func (e *Env) Table3() (Result, error) {
	r := Result{
		ID:     "table3",
		Title:  "DarkVec vs IP2VEC vs DANTE",
		Header: []string{"system", "window", "skip-grams", "train-time", "accuracy", "coverage"},
	}
	shortDays := 5
	if shortDays > e.Opts.Days {
		shortDays = e.Opts.Days
	}
	windows := []struct {
		name string
		days int
	}{
		{fmt.Sprintf("%dd", shortDays), shortDays},
		{fmt.Sprintf("%dd", e.Opts.Days), e.Opts.Days},
	}
	for _, w := range windows {
		// DarkVec with domain-knowledge services.
		emb, err := e.Embedding(core.ServiceDomain, w.days)
		if err != nil {
			return r, err
		}
		rep, cov := e.evaluateEmbedding(emb)
		r.Rows = append(r.Rows, []string{
			"darkvec", w.name, i64(emb.SkipGrams), emb.TrainTime.Round(time.Millisecond).String(),
			f2(rep.Accuracy), pct(cov),
		})

		// IP2VEC over the same active senders.
		tr := e.Full
		if w.days < e.Opts.Days {
			tr = e.Full.LastDays(w.days)
		}
		active := tr.ActiveSenders(10)
		pairs := ip2vec.PairCount(tr, active) * int64(e.Opts.Epochs)
		start := time.Now()
		space, err := ip2vec.Train(tr, active, ip2vec.Config{
			Dim: e.Opts.Dim, Epochs: e.Opts.Epochs, Seed: e.Opts.Seed,
		})
		if err != nil {
			return r, err
		}
		ipTime := time.Since(start)
		// Evaluate on last-day labeled senders present in the space.
		lbl := map[string]string{}
		for _, ip := range e.Last.Senders() {
			if active[ip] {
				lbl[ip.String()] = e.GT.Class(ip)
			}
		}
		ipRep := knn.Evaluate(space, lbl, e.Opts.K, labels.Unknown)
		covered, totalEval := 0, 0
		for _, ip := range e.Last.Senders() {
			if !e.Active[ip] {
				continue
			}
			totalEval++
			if _, ok := space.Index(ip.String()); ok {
				covered++
			}
		}
		ipCov := 0.0
		if totalEval > 0 {
			ipCov = float64(covered) / float64(totalEval)
		}
		r.Rows = append(r.Rows, []string{
			"ip2vec", w.name, i64(pairs), ipTime.Round(time.Millisecond).String(),
			f2(ipRep.Accuracy), pct(ipCov),
		})

		// DANTE: report the skip-gram blow-up; train only if it fits the
		// budget (the paper's DANTE never finished the full dataset).
		dCfg := dante.Config{
			Dim: e.Opts.Dim, Window: e.Opts.Window, Epochs: e.Opts.Epochs,
			Seed: e.Opts.Seed, MaxSkipGrams: 20_000_000,
		}
		dPairs := dante.SkipGramCount(tr, active, dCfg.Window, dCfg.Epochs)
		start = time.Now()
		dSpace, err := dante.Train(tr, active, dCfg)
		var budgetErr *dante.ErrBudget
		switch {
		case errors.As(err, &budgetErr):
			r.Rows = append(r.Rows, []string{
				"dante", w.name, i64(dPairs), "aborted", "does not scale", "–",
			})
		case err != nil:
			return r, err
		default:
			dTime := time.Since(start)
			dRep := knn.Evaluate(dSpace, lbl, e.Opts.K, labels.Unknown)
			r.Rows = append(r.Rows, []string{
				"dante", w.name, i64(dPairs), dTime.Round(time.Millisecond).String(),
				f2(dRep.Accuracy), "–",
			})
		}
	}
	fullActive := len(e.Full.ActiveSenders(10))
	r.Notes = append(r.Notes,
		"paper: DarkVec 0.93→0.96 (5d→30d), IP2VEC 0.67 then infeasible, DANTE never completes",
		fmt.Sprintf("dante trains one independent Word2Vec model per sender (%d models on the full window): beyond the pairs, every model pays its own vocabulary, matrices and epochs — the cost the budget guard caps", fullActive),
		"ip2vec's pair count excludes the ×(1+negative) sampling multiplier its training actually pays")
	return r, nil
}

// Fig6 sweeps the training window length and reports labeled-sender
// coverage and accuracy.
func (e *Env) Fig6() (Result, error) {
	r := Result{
		ID:     "fig6",
		Title:  "Impact of training window length",
		Header: []string{"window-days", "coverage", "accuracy"},
	}
	for _, days := range trainingWindows(e.Opts.Days) {
		emb, err := e.Embedding(core.ServiceDomain, days)
		if err != nil {
			return r, err
		}
		rep, cov := e.evaluateEmbedding(emb)
		r.Rows = append(r.Rows, []string{itoa(days), pct(cov), f2(rep.Accuracy)})
	}
	r.Notes = append(r.Notes,
		"paper Fig. 6: coverage climbs from ~45% (1 day) to 100% (30 days); accuracy drops only ~3% at 5 days")
	return r, nil
}

func trainingWindows(maxDays int) []int {
	candidates := []int{1, 5, 10, 20, 30}
	var out []int
	for _, d := range candidates {
		if d < maxDays {
			out = append(out, d)
		}
	}
	return append(out, maxDays)
}

// Fig7 sweeps k for the three service definitions.
func (e *Env) Fig7() (Result, error) {
	r := Result{
		ID:     "fig7",
		Title:  "k-NN accuracy vs k per service definition",
		Header: []string{"k", "single", "auto", "domain"},
	}
	kinds := []core.ServiceKind{core.ServiceSingle, core.ServiceAuto, core.ServiceDomain}
	spaces := make(map[core.ServiceKind]*embed.Space, len(kinds))
	for _, kind := range kinds {
		emb, err := e.Embedding(kind, e.Opts.Days)
		if err != nil {
			return r, err
		}
		space, _ := emb.EvalSpace(e.Last, e.Active)
		spaces[kind] = space
	}
	for _, k := range []int{1, 3, 7, 17, 25, 35} {
		row := []string{itoa(k)}
		for _, kind := range kinds {
			rep := core.Evaluate(spaces[kind], e.GT, k)
			row = append(row, f2(rep.Accuracy))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"paper Fig. 7: single service is clearly worst; auto and domain plateau above 0.96 around k=7")
	return r, nil
}

// Fig8 grid-searches context window c and embedding size V for the auto and
// domain service definitions, reporting accuracy and training time.
func (e *Env) Fig8() (Result, error) {
	r := Result{
		ID:     "fig8",
		Title:  "Grid search on context window c and dimension V",
		Header: []string{"services", "c", "V", "accuracy", "train-time"},
	}
	cs, vs := gridAxes(e.Opts)
	for _, kind := range []core.ServiceKind{core.ServiceAuto, core.ServiceDomain} {
		for _, c := range cs {
			for _, v := range vs {
				emb, err := e.EmbeddingVC(kind, e.Opts.Days, v, c)
				if err != nil {
					return r, err
				}
				rep, _ := e.evaluateEmbedding(emb)
				r.Rows = append(r.Rows, []string{
					string(kind), itoa(c), itoa(v), f2(rep.Accuracy),
					emb.TrainTime.Round(time.Millisecond).String(),
				})
			}
		}
	}
	r.Notes = append(r.Notes,
		"paper Fig. 8: accuracy is flat across the grid (±0.02); runtime grows with c and V",
		"hence the paper's (and our) default c=25, V=50: smallest setting on the plateau")
	return r, nil
}

// gridAxes picks the c×V grid. The paper uses c ∈ {5,25,50,75} and
// V ∈ {50,100,150,200}; at reduced scale we keep the same proportions
// around the configured operating point.
func gridAxes(o Options) (cs, vs []int) {
	cs = []int{5, 25, 50, 75}
	vs = []int{50, 100, 150, 200}
	if o.Window < 25 { // scaled-down run: shrink the grid proportionally
		cs = []int{o.Window / 2, o.Window, o.Window * 2}
		vs = []int{o.Dim, o.Dim * 2}
		if cs[0] == 0 {
			cs[0] = 1
		}
	}
	return cs, vs
}

// Table4 reproduces the per-class report for all three service definitions.
func (e *Env) Table4() (Result, error) {
	r := Result{
		ID:     "table4",
		Title:  "Per-class 7-NN report per service definition",
		Header: []string{"class", "def", "precision", "recall", "f-score", "support"},
	}
	for _, kind := range []core.ServiceKind{core.ServiceSingle, core.ServiceAuto, core.ServiceDomain} {
		emb, err := e.Embedding(kind, e.Opts.Days)
		if err != nil {
			return r, err
		}
		rep, _ := e.evaluateEmbedding(emb)
		for _, c := range rep.Classes {
			p, f := "–", "–"
			if !math.IsNaN(c.Precision) {
				p = f2(c.Precision)
			}
			if !math.IsNaN(c.FScore) {
				f = f2(c.FScore)
			}
			r.Rows = append(r.Rows, []string{c.Label, string(kind), p, f2(c.Recall), f, itoa(c.Support)})
		}
	}
	r.Notes = append(r.Notes,
		"paper Table 4: single service fails on minority classes; auto/domain recover them; Stretchoid stays hardest")
	return r, nil
}
