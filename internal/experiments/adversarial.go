package experiments

import (
	"fmt"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/drift"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/trace"
)

// This file evaluates the drift quality gate against the evasive scanner
// personalities of internal/darksim: how much k-NN accuracy each attack
// costs when the poisoned retrain is served, and whether the gate's
// budgets catch it before publish. The loud sybil flood is sized 1:1
// against the legitimate eval population; mimicry and jitter run at a
// quarter of that — the stealthy operating point that tries to slip
// under the churn budget.

// adversarialBudgets is the gate configuration the harness judges
// candidates against — the operating point the README walkthrough uses.
var adversarialBudgets = drift.Budgets{
	MaxScore:          0.35,
	MaxVocabChurn:     0.40,
	MaxNewClusterFrac: 0.35,
}

// attackOutcome is one scenario's measurement, kept structured so tests
// assert on numbers instead of rendered strings.
type attackOutcome struct {
	kind      darksim.AttackKind
	attackers int
	coverage  float64
	accuracy  float64 // k-NN accuracy when the poisoned model serves
	report    *drift.Report
	reasons   []string // budget violations; empty = gate admits it
	servedAcc float64  // accuracy actually served with the gate in place
}

// captureEval freezes an eval-window space the way darkvecd's gate does.
func (e *Env) captureEval(space *embed.Space, version string) (*drift.Snapshot, error) {
	v := core.NewView(space, e.GT, e.Opts.KPrime, e.Opts.Seed)
	return drift.Capture(space, v.Assign, version, v.GateClass, nil)
}

// adversarialOutcomes trains the clean baseline, then replays each attack
// kind over the final day and retrains on the poisoned trace.
func (e *Env) adversarialOutcomes() (baseAcc float64, outcomes []attackOutcome, err error) {
	emb, err := e.Embedding(core.ServiceDomain, e.Opts.Days)
	if err != nil {
		return 0, nil, err
	}
	baseSpace, _ := emb.EvalSpace(e.Last, e.Active)
	baseAcc = core.Evaluate(baseSpace, e.GT, e.Opts.K).Accuracy
	baseSnap, err := e.captureEval(baseSpace, "baseline")
	if err != nil {
		return 0, nil, err
	}

	// Attacks overlay the final (eval) day, so attacker and victim share
	// the co-occurrence windows the embedding is learned from.
	lastStart := e.Out.Config.Start + int64(e.Opts.Days-1)*86400
	loud := baseSpace.Len()
	if loud < 32 {
		loud = 32
	}
	stealthy := loud / 4
	if stealthy < 8 {
		stealthy = 8
	}
	sizes := map[darksim.AttackKind]int{
		darksim.AttackSybil:   loud,
		darksim.AttackMimicry: stealthy,
		darksim.AttackJitter:  stealthy,
	}
	for _, kind := range darksim.AttackKinds() {
		atk, aerr := darksim.Attack(darksim.AttackConfig{
			Kind:    kind,
			Seed:    e.Opts.Seed,
			Start:   lastStart,
			Senders: sizes[kind],
			Darknet: e.Out.Config.Darknet,
		})
		if aerr != nil {
			return 0, nil, aerr
		}
		merged := trace.Merge(e.Full, atk.Trace)
		cfg := e.config(core.ServiceDomain, e.Opts.Dim, e.Opts.Window)
		embAtk, terr := core.TrainEmbedding(merged, cfg)
		if terr != nil {
			return 0, nil, fmt.Errorf("experiments: training under %s: %w", kind, terr)
		}
		space, cov := embAtk.EvalSpace(merged.LastDays(1), merged.ActiveSenders(10))
		acc := core.Evaluate(space, e.GT, e.Opts.K).Accuracy
		snap, cerr := e.captureEval(space, string(kind))
		if cerr != nil {
			return 0, nil, cerr
		}
		rep, derr := drift.Compare(baseSnap, snap, drift.Options{})
		if derr != nil {
			return 0, nil, derr
		}
		out := attackOutcome{
			kind:      kind,
			attackers: len(atk.Attackers),
			coverage:  cov,
			accuracy:  acc,
			report:    rep,
			reasons:   adversarialBudgets.Evaluate(rep),
		}
		// The gate's whole value proposition: a rejected candidate never
		// serves, so the accuracy on the air stays the baseline's.
		out.servedAcc = acc
		if len(out.reasons) > 0 {
			out.servedAcc = baseAcc
		}
		outcomes = append(outcomes, out)
	}
	return baseAcc, outcomes, nil
}

// Adversarial regenerates the robustness table: per attack personality,
// the k-NN accuracy a poisoned retrain would serve, the drift signals it
// trips, and the accuracy actually served with the gate in place.
func (e *Env) Adversarial() (Result, error) {
	baseAcc, outcomes, err := e.adversarialOutcomes()
	if err != nil {
		return Result{}, err
	}
	r := Result{
		ID:    "attacks",
		Title: "Evasive scanners vs the drift gate (robustness)",
		Header: []string{
			"scenario", "attackers", "coverage", "accuracy",
			"drift-score", "vocab-churn", "new-cluster", "gate", "served-acc",
		},
	}
	r.Rows = append(r.Rows, []string{
		"baseline", "0", "-", f2(baseAcc), "-", "-", "-", "-", f2(baseAcc),
	})
	for _, o := range outcomes {
		gate := "admit"
		if len(o.reasons) > 0 {
			gate = "reject"
		}
		r.Rows = append(r.Rows, []string{
			string(o.kind), itoa(o.attackers), pct(o.coverage), f2(o.accuracy),
			f3(o.report.Score), f3(o.report.VocabChurn), f3(o.report.NewClusterFrac),
			gate, f2(o.servedAcc),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("gate budgets: score <= %.2f, vocab churn <= %.2f, new-cluster fraction <= %.2f",
			adversarialBudgets.MaxScore, adversarialBudgets.MaxVocabChurn, adversarialBudgets.MaxNewClusterFrac),
		"a rejected candidate never serves: its served-acc column is the baseline's accuracy",
		"mimicry and jitter run at a quarter of the sybil's size — the stealthy operating point")
	return r, nil
}
