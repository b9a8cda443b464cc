package experiments

import (
	"fmt"
	"time"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/w2v"
)

// Rolling replays the production retrain cadence: a fixed-length window
// slides one day at a time over the trace, and each step is trained twice —
// cold from scratch, and warm-seeded from the previous step's model (the
// darkvecd -warm path: surviving senders keep their vectors, only the
// window delta is retrained). Both are one core.Generate, as in the daemon.
// The table is the training-time (Embedding.TrainTime) and accuracy
// trajectory of both strategies over the same windows, which is the
// evidence that warm chaining compounds its savings without compounding
// error.
func (e *Env) Rolling() (Result, error) {
	if e.Opts.Days < 4 {
		return Result{}, fmt.Errorf("rolling experiment needs >= 4 days, have %d", e.Opts.Days)
	}
	winDays := e.Opts.Days - 2 // three windows, shifted one day each
	const steps = 3
	first, _ := e.Full.Span()
	day0 := first - first%86400

	cfg := e.config(core.ServiceDomain, e.Opts.Dim, e.Opts.Window)
	in := corpus.NewInterner() // shared id space keeps warm seeding string-free

	r := Result{
		ID:    "rolling",
		Title: fmt.Sprintf("Rolling %d-day window, %d steps: warm chain vs cold retrains", winDays, steps),
		Header: []string{
			"window", "strategy", "epochs", "wall-ms", "coverage", "accuracy",
		},
	}

	var prevWarm *w2v.Model
	total := map[string]time.Duration{}
	for w := 0; w < steps; w++ {
		lo := day0 + int64(w)*86400
		c := e.Full.Window(lo, lo+int64(winDays)*86400).Cut(cfg.MinPackets)
		// Cold pays the full epoch budget every step. Warm is chained: each
		// step seeds from the previous *warm* model, so seeding error would
		// compound here if it existed.
		for _, strategy := range []string{"cold", "warm"} {
			topts := core.TrainOpts{Interner: in}
			if strategy == "warm" && prevWarm != nil {
				topts.Warm = &w2v.WarmSeed{Prev: prevWarm, PrevPerm: prevWarm.Perm}
			}
			g, err := core.Generate(c, 1, e.GT, cfg, topts)
			if err != nil {
				return Result{}, fmt.Errorf("rolling: %s step %d: %w", strategy, w, err)
			}
			if strategy == "warm" {
				prevWarm = g.Emb.Model
			}
			total[strategy] += g.Emb.TrainTime
			rep := core.Evaluate(g.Space, e.GT, e.Opts.K)
			r.Rows = append(r.Rows, []string{
				fmt.Sprintf("d%d-d%d", w, w+winDays), strategy, itoa(g.Emb.Epochs),
				i64(g.Emb.TrainTime.Milliseconds()), pct(g.Coverage), f2(rep.Accuracy),
			})
		}
	}

	r.Notes = append(r.Notes,
		fmt.Sprintf("warm chain total %s vs cold total %s (x%.1f) over %d steps",
			total["warm"].Round(time.Millisecond), total["cold"].Round(time.Millisecond),
			float64(total["cold"])/float64(total["warm"]), steps),
		"step 0 has no previous generation, so its warm row is a cold train — the chain's honest startup cost",
	)
	return r, nil
}
