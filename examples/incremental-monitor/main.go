// Incremental monitoring: operating DarkVec day over day (§8 discussion).
//
// A real darknet never stops; retraining from scratch every day wastes
// hours. This example trains a model on the first weeks of traffic, then
// refreshes it each new day by warm start — surviving senders keep their
// vectors, new senders get fresh ones, and only the day's delta is trained
// (the darkvecd -warm path) — and tracks classification coverage and
// accuracy after every refresh. It finishes by pivoting from one known
// Censys address to its nearest-neighbour cohort, the analyst move the
// embedding makes cheap.
//
//	go run ./examples/incremental-monitor
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/darkvec/darkvec"
)

func main() {
	const days = 15
	data := darkvec.Simulate(darkvec.SimConfig{
		Seed: 33, Days: days, Scale: 0.02, Rate: 0.05,
	})
	gt := darkvec.BuildGroundTruth(data.Trace, data.Feeds)
	fullActive := data.Trace.ActiveSenders(10)

	// Bootstrap on the first 10 days.
	cfg := darkvec.DefaultConfig()
	cfg.W2V.Epochs = 4
	in := darkvec.NewSenderInterner()
	emb, err := darkvec.TrainWithOpts(data.Trace.FirstDays(10), cfg, darkvec.TrainOpts{Interner: in})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap on 10 days: vocab %d, %s\n",
		emb.Model.Vocab.Size(), emb.TrainTime.Round(time.Millisecond))

	// Fold in days 11..15 one at a time. The interner is shared so each
	// refresh maps surviving senders to their previous rows by id.
	first, _ := data.Trace.Span()
	dayStart := first - first%86400
	for day := 10; day < days; day++ {
		t0 := time.Now()
		emb, err = darkvec.TrainWithOpts(data.Trace.FirstDays(day+1), cfg, darkvec.TrainOpts{
			Interner: in,
			Warm:     &darkvec.WarmSeed{Prev: emb.Model, PrevPerm: emb.Model.Perm},
		})
		if err != nil {
			log.Fatal(err)
		}
		// Coverage is over the day's senders that are active in the full
		// trace, the paper's definition.
		lo := dayStart + int64(day)*86400
		space, cov := emb.EvalSpace(data.Trace.Window(lo, lo+86400), fullActive)
		rep := darkvec.Evaluate(space, gt, cfg.K)
		fmt.Printf("day %2d folded in %8s (%d/%d epochs): vocab %5d, coverage %5.1f%%, accuracy %.3f\n",
			day+1, time.Since(t0).Round(time.Millisecond), emb.Epochs, cfg.W2V.Epochs,
			emb.Model.Vocab.Size(), cov*100, rep.Accuracy)
	}

	// Pivot from a known scanner to its cohort.
	space, _ := emb.EvalSpace(data.Trace.LastDays(1), fullActive)
	exemplar := data.Feeds["censys"][0].String()
	sims, ok := space.MostSimilar(exemplar, 8)
	if !ok {
		log.Fatalf("exemplar %s not in space", exemplar)
	}
	fmt.Printf("\nnearest neighbours of censys exemplar %s:\n", exemplar)
	for _, s := range sims {
		var class string
		if ip, err := darkvec.ParseIPv4(s.Word); err == nil {
			class = gt.Class(ip)
		}
		fmt.Printf("  %-15s sim %.3f  %s\n", s.Word, s.Sim, class)
	}
}
