// Command benchperf measures the throughput of the pipeline's
// perf-critical substrates — corpus construction, Word2Vec training, the
// end-to-end trace→model path, the batched exact k-NN engine, the
// parallel silhouette, and the drift-gate check a retrain cycle pays
// before publishing — at a fixed operating point, and writes the numbers
// to a JSON file (BENCH_perf.json) so runs can be compared across commits
// and machines.
//
// The report holds one entry per GOMAXPROCS value in its "runs" array;
// re-running with a different -maxprocs merges into the existing file
// instead of overwriting it, so a single BENCH_perf.json shows the serial
// and multi-core numbers side by side. Substrates with a serial pin
// (corpus, trace→model, k-NN, classification, silhouette) additionally
// record their one-worker rate inside each run, making parallel speedup
// visible directly.
//
// Usage:
//
//	benchperf [-out BENCH_perf.json] [-iters 3] [-maxprocs N] [-days 8] ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/drift"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/experiments"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
	"github.com/darkvec/darkvec/internal/wal"
)

// report is the BENCH_perf.json schema: machine facts and options shared
// across runs, plus one runEntry per GOMAXPROCS setting.
type report struct {
	GoVersion string     `json:"go_version"`
	GOOS      string     `json:"goos"`
	GOARCH    string     `json:"goarch"`
	Iters     int        `json:"iters"`
	Options   options    `json:"options"`
	Runs      []runEntry `json:"runs"`
}

type runEntry struct {
	GeneratedUnix int64   `json:"generated_unix"`
	GoMaxProcs    int     `json:"go_max_procs"`
	Metrics       metrics `json:"metrics"`
}

type options struct {
	Seed          uint64  `json:"seed"`
	Days          int     `json:"days"`
	Scale         float64 `json:"scale"`
	Rate          float64 `json:"rate"`
	Dim           int     `json:"dim"`
	Window        int     `json:"window"`
	Epochs        int     `json:"epochs"`
	K             int     `json:"k"`
	ANNRows       int     `json:"ann_rows"`
	CorpusScale   int     `json:"corpus_scale"`
	RetrainEpochs int     `json:"retrain_epochs"`
}

type metrics struct {
	SpaceRows int `json:"space_rows"`

	CorpusEventsPerS       float64 `json:"corpus_events_per_s"`
	CorpusEventsPerSSerial float64 `json:"corpus_events_per_s_serial"`

	W2VPairsPerS float64 `json:"w2v_pairs_per_s"`

	TraceToModelS       float64 `json:"trace_to_model_s"`
	TraceToModelSSerial float64 `json:"trace_to_model_s_serial"`

	KNNRowsPerS       float64 `json:"knn_rows_per_s"`
	KNNRowsPerSSerial float64 `json:"knn_rows_per_s_serial"`

	ClassifyPredsPerS       float64 `json:"classify_preds_per_s"`
	ClassifyPredsPerSSerial float64 `json:"classify_preds_per_s_serial"`

	SilhouetteCellsPerS       float64 `json:"silhouette_cells_per_s"`
	SilhouetteCellsPerSSerial float64 `json:"silhouette_cells_per_s_serial"`

	DriftCheckS float64 `json:"drift_check_s"`

	// Rolling-retrain substrate: the darkvecd -warm path measured on a
	// ≥90%-overlap window pair. retrain_cold_s is a from-scratch retrain of
	// the shifted window at the full retrain_epochs budget; retrain_warm_s
	// is the same retrain seeded from the previous window's model, training
	// only the delta-sized epoch budget. The parity deltas (warm − cold) are
	// the Fig 7 k-NN accuracy and mean silhouette on the shifted window's
	// eval day — the evidence the speedup does not trade quality away.
	RetrainColdS           float64 `json:"retrain_cold_s"`
	RetrainWarmS           float64 `json:"retrain_warm_s"`
	RetrainColdEpochs      int     `json:"retrain_cold_epochs"`
	RetrainWarmEpochs      int     `json:"retrain_warm_epochs"`
	RetrainOverlap         float64 `json:"retrain_window_overlap"`
	RetrainAccuracyDelta   float64 `json:"retrain_warm_accuracy_delta"`
	RetrainSilhouetteDelta float64 `json:"retrain_warm_silhouette_delta"`

	// Approximate k-NN substrate, measured on a synthetic clustered space
	// of ann_rows senders (the exact engine's O(n²) scan is measured above
	// at the dataset's natural size; the IVF index targets spaces two
	// orders larger). ann_rows_per_s and ann_exact_rows_per_s share the
	// same query sample, so their ratio is the honest speedup, and
	// ann_recall_at_k is recall@10 of the approximate answers against the
	// exact ones on that sample.
	ANNRowsPerS      float64 `json:"ann_rows_per_s"`
	ANNExactRowsPerS float64 `json:"ann_exact_rows_per_s"`
	ANNRecallAtK     float64 `json:"ann_recall_at_k"`
	ANNBuildS        float64 `json:"ann_build_s"`
	ANNNProbe        int     `json:"ann_nprobe"`
	ANNCells         int     `json:"ann_cells"`

	// Durable-ingestion substrate: group-commit append throughput per fsync
	// policy (the price of each durability level on the hot ingest path)
	// and the boot-replay latency of the resulting log.
	WALAppendAlwaysPerS   float64 `json:"wal_append_events_per_s_always"`
	WALAppendIntervalPerS float64 `json:"wal_append_events_per_s_interval"`
	WALAppendOffPerS      float64 `json:"wal_append_events_per_s_off"`
	WALReplayS            float64 `json:"wal_replay_s"`

	FedMergeS     float64 `json:"fed_merge_s"`
	FedQueryP99Ms float64 `json:"fed_query_p99_ms"`
}

func main() {
	var (
		out           = flag.String("out", "BENCH_perf.json", "output JSON path (merged per go_max_procs)")
		iters         = flag.Int("iters", 3, "timing iterations per substrate (best kept)")
		maxprocs      = flag.Int("maxprocs", 0, "override GOMAXPROCS for this run (0 = runtime default)")
		days          = flag.Int("days", 8, "trace length in days")
		scale         = flag.Float64("scale", 0.02, "population scale")
		rate          = flag.Float64("rate", 0.05, "packet rate scale")
		dim           = flag.Int("dim", 24, "embedding dimension V")
		window        = flag.Int("window", 10, "context window c")
		epochs        = flag.Int("epochs", 2, "training epochs")
		k             = flag.Int("k", 7, "classifier neighbourhood size")
		seed          = flag.Uint64("seed", 1, "run seed")
		annRows       = flag.Int("annrows", 100000, "synthetic space size for the approximate-k-NN benchmark (0 = skip)")
		corpusScale   = flag.Int("corpusscale", 1, "event multiplier for the corpus-build and trace→model substrates (replicates the trace end-to-end N times)")
		retrainEpochs = flag.Int("retrainepochs", 6, "full epoch budget of the warm-vs-cold retrain substrate")
	)
	flag.Parse()
	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}

	opts := experiments.Options{
		Seed: *seed, Days: *days, Scale: *scale, Rate: *rate,
		Dim: *dim, Window: *window, Epochs: *epochs,
	}
	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Iters:     *iters,
		Options: options{
			Seed: *seed, Days: *days, Scale: *scale, Rate: *rate,
			Dim: *dim, Window: *window, Epochs: *epochs, K: *k,
			ANNRows: *annRows, CorpusScale: *corpusScale, RetrainEpochs: *retrainEpochs,
		},
	}
	run := runEntry{
		GeneratedUnix: time.Now().Unix(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}

	start := time.Now()
	fmt.Printf("generating dataset (days=%d scale=%g rate=%g seed=%d procs=%d)...\n",
		*days, *scale, *rate, *seed, run.GoMaxProcs)
	env := experiments.NewEnv(opts)
	emb, err := env.Embedding(core.ServiceDomain, *days)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	space, _ := emb.EvalSpace(env.Last, env.Active)
	run.Metrics.SpaceRows = space.Len()
	fmt.Printf("dataset ready in %s: eval space %d rows x dim %d\n\n",
		time.Since(start).Round(time.Millisecond), space.Len(), space.Dim)

	// Corpus construction throughput: full interned build over the active-
	// filtered trace, fresh interner each iteration so every sender pays
	// its one-time interning cost inside the measurement. -corpusscale
	// replicates the trace end-to-end so the parallel substrates can be
	// measured past the generator's natural event count (the regime where
	// the multi-worker build overtakes the serial one).
	def := services.NewDomain()
	filtered := scaleTrace(env.Full.FilterSenders(env.Full.ActiveSenders(10)), *corpusScale)
	scaledFull := scaleTrace(env.Full, *corpusScale)
	if *corpusScale > 1 {
		fmt.Printf("corpus scale x%d: %d events for the corpus-build and trace→model substrates\n",
			*corpusScale, filtered.Len())
	}
	events := float64(filtered.Len())
	corpusRate := func(workers int) func() (float64, error) {
		return func() (float64, error) {
			t0 := time.Now()
			c := corpus.BuildOpts(filtered, def, corpus.DefaultDeltaT, corpus.Options{Workers: workers})
			if c.Tokens() == 0 {
				return 0, fmt.Errorf("empty corpus")
			}
			return events / time.Since(t0).Seconds(), nil
		}
	}
	run.Metrics.CorpusEventsPerSSerial = best(*iters, corpusRate(1))
	run.Metrics.CorpusEventsPerS = best(*iters, corpusRate(0))
	fmt.Printf("corpus build:   %12.0f events/s (serial %0.f, x%.2f)\n",
		run.Metrics.CorpusEventsPerS, run.Metrics.CorpusEventsPerSSerial,
		run.Metrics.CorpusEventsPerS/run.Metrics.CorpusEventsPerSSerial)

	// Word2Vec training throughput over the interned corpus.
	sentences := corpus.Build(filtered, def, corpus.DefaultDeltaT).Sentences()
	cfg := w2v.Config{
		Dim: *dim, Window: *window, Epochs: 1,
		Seed: *seed, ShrinkWindow: true, PadToken: "NULL",
	}
	run.Metrics.W2VPairsPerS = best(*iters, func() (float64, error) {
		t0 := time.Now()
		m, err := w2v.Train(sentences, cfg)
		if err != nil {
			return 0, err
		}
		return float64(m.Pairs) / time.Since(t0).Seconds(), nil
	})
	fmt.Printf("w2v train:      %12.0f pairs/s\n", run.Metrics.W2VPairsPerS)

	// End-to-end trace → model latency (filter, corpus, one-epoch train),
	// the path a darkvecd retrain cycle pays. Lowest wall time kept.
	e2eCfg := core.DefaultConfig()
	e2eCfg.W2V = cfg
	e2e := func(workers int) func() (float64, error) {
		return func() (float64, error) {
			t0 := time.Now()
			if _, err := core.TrainEmbeddingOpts(scaledFull, e2eCfg, core.TrainOpts{CorpusWorkers: workers}); err != nil {
				return 0, err
			}
			return time.Since(t0).Seconds(), nil
		}
	}
	run.Metrics.TraceToModelSSerial = bestLow(*iters, e2e(1))
	run.Metrics.TraceToModelS = bestLow(*iters, e2e(0))
	fmt.Printf("trace→model:    %12.3f s        (serial %.3f, x%.2f)\n",
		run.Metrics.TraceToModelS, run.Metrics.TraceToModelSSerial,
		run.Metrics.TraceToModelSSerial/run.Metrics.TraceToModelS)

	// Warm-vs-cold rolling retrain: two windows covering 95% of the trace
	// each, shifted so they overlap ~94.7% — the darkvecd cadence where a
	// retrain re-sees almost the entire previous window. Both numbers are
	// the full trace→model path (filter, corpus, vocab, train) at the
	// production retrain_epochs budget; warm seeds from the first window's
	// model through the shared interner, exactly as the daemon does.
	{
		first, last := env.Full.Span()
		span := last - first
		winLen := span * 19 / 20
		trA := env.Full.Window(first, first+winLen)
		trB := env.Full.Window(last-winLen, last+1)
		run.Metrics.RetrainOverlap = float64(2*winLen-span) / float64(winLen)

		rcfg := core.DefaultConfig()
		rcfg.W2V = w2v.Config{
			Dim: *dim, Window: *window, Epochs: *retrainEpochs,
			Seed: *seed, ShrinkWindow: true, PadToken: "NULL",
		}
		in := corpus.NewInterner()
		prev, err := core.TrainEmbeddingOpts(trA, rcfg, core.TrainOpts{Interner: in})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchperf:", err)
			os.Exit(1)
		}
		var coldEmb, warmEmb *core.Embedding
		run.Metrics.RetrainColdS = bestLow(*iters, func() (float64, error) {
			t0 := time.Now()
			e, err := core.TrainEmbeddingOpts(trB, rcfg, core.TrainOpts{Interner: in})
			if err != nil {
				return 0, err
			}
			coldEmb = e
			return time.Since(t0).Seconds(), nil
		})
		run.Metrics.RetrainWarmS = bestLow(*iters, func() (float64, error) {
			t0 := time.Now()
			e, err := core.TrainEmbeddingOpts(trB, rcfg, core.TrainOpts{
				Interner: in,
				Warm:     &w2v.WarmSeed{Prev: prev.Model, PrevPerm: prev.Model.Perm},
			})
			if err != nil {
				return 0, err
			}
			warmEmb = e
			return time.Since(t0).Seconds(), nil
		})
		run.Metrics.RetrainColdEpochs = coldEmb.Epochs
		run.Metrics.RetrainWarmEpochs = warmEmb.Epochs

		// Quality parity on the shifted window's eval day: Fig 7 k-NN
		// accuracy and mean silhouette, warm minus cold.
		parity := func(e *core.Embedding) (float64, float64) {
			sp, _ := e.EvalSpace(trB.LastDays(1), nil)
			acc := core.Evaluate(sp, env.GT, *k).Accuracy
			sil, err := cluster.Silhouette(sp, core.Cluster(sp, 3, *seed).Assign)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchperf:", err)
				os.Exit(1)
			}
			var sum float64
			for _, v := range sil {
				sum += v
			}
			if len(sil) > 0 {
				sum /= float64(len(sil))
			}
			return acc, sum
		}
		accC, silC := parity(coldEmb)
		accW, silW := parity(warmEmb)
		run.Metrics.RetrainAccuracyDelta = accW - accC
		run.Metrics.RetrainSilhouetteDelta = silW - silC
		fmt.Printf("retrain warm:   %12.3f s        (cold %.3f, x%.2f; %d vs %d epochs, overlap %.1f%%)\n",
			run.Metrics.RetrainWarmS, run.Metrics.RetrainColdS,
			run.Metrics.RetrainColdS/run.Metrics.RetrainWarmS,
			run.Metrics.RetrainWarmEpochs, run.Metrics.RetrainColdEpochs,
			100*run.Metrics.RetrainOverlap)
		fmt.Printf("retrain parity: %+12.4f accuracy delta, %+.4f silhouette delta (warm - cold)\n",
			run.Metrics.RetrainAccuracyDelta, run.Metrics.RetrainSilhouetteDelta)
	}

	// Batched k-NN engine, serial pin then all cores.
	knnRate := func(s *embed.Space) (float64, error) {
		t0 := time.Now()
		if nn := s.AllKNN(*k); len(nn) != s.Len() {
			return 0, fmt.Errorf("AllKNN length mismatch")
		}
		return float64(s.Len()) / time.Since(t0).Seconds(), nil
	}
	space.MaxProcs = 1
	run.Metrics.KNNRowsPerSSerial = best(*iters, func() (float64, error) { return knnRate(space) })
	space.MaxProcs = 0
	run.Metrics.KNNRowsPerS = best(*iters, func() (float64, error) { return knnRate(space) })
	fmt.Printf("knn all:        %12.0f rows/s   (serial %0.f, x%.2f)\n",
		run.Metrics.KNNRowsPerS, run.Metrics.KNNRowsPerSSerial,
		run.Metrics.KNNRowsPerS/run.Metrics.KNNRowsPerSSerial)

	// Approximate k-NN at scale. The paper's 30-day darknet holds ~540k
	// senders — far beyond what the trace generator can produce in a
	// benchmark run — so the index is measured on a synthetic clustered
	// space of -annrows rows (senders form coordinated cohorts; clustered
	// data is the regime IVF is built for). Exact and approximate rates
	// share one deterministic query sample; recall@10 is computed on it.
	if *annRows > 0 {
		const annK = 10
		annSpace := syntheticSpace(*annRows, *dim, *seed)
		t0 := time.Now()
		ix, err := annSpace.BuildIVF(embed.IVFOptions{Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchperf:", err)
			os.Exit(1)
		}
		run.Metrics.ANNBuildS = time.Since(t0).Seconds()
		st := ix.Stats()
		run.Metrics.ANNNProbe = st.NProbe
		run.Metrics.ANNCells = st.Cells

		nq := 2048
		if nq > annSpace.Len() {
			nq = annSpace.Len()
		}
		queries := make([]int, nq)
		for i := range queries {
			queries[i] = i * annSpace.Len() / nq
		}
		var exactNN, annNN [][]embed.Neighbor
		run.Metrics.ANNExactRowsPerS = best(*iters, func() (float64, error) {
			t0 := time.Now()
			exactNN = annSpace.KNNBatch(queries, annK)
			return float64(nq) / time.Since(t0).Seconds(), nil
		})
		run.Metrics.ANNRowsPerS = best(*iters, func() (float64, error) {
			t0 := time.Now()
			annNN = ix.KNNBatch(queries, annK)
			return float64(nq) / time.Since(t0).Seconds(), nil
		})
		hit, total := 0, 0
		for qi := range exactNN {
			in := make(map[int]bool, len(exactNN[qi]))
			for _, nb := range exactNN[qi] {
				in[nb.Row] = true
			}
			total += len(exactNN[qi])
			for _, nb := range annNN[qi] {
				if in[nb.Row] {
					hit++
				}
			}
		}
		if total > 0 {
			run.Metrics.ANNRecallAtK = float64(hit) / float64(total)
		}
		fmt.Printf("ann (%d rows): %11.0f rows/s   (exact %0.f, x%.1f; recall@%d %.3f, %d/%d cells, build %.2fs)\n",
			*annRows, run.Metrics.ANNRowsPerS, run.Metrics.ANNExactRowsPerS,
			run.Metrics.ANNRowsPerS/run.Metrics.ANNExactRowsPerS,
			annK, run.Metrics.ANNRecallAtK, st.NProbe, st.Cells, run.Metrics.ANNBuildS)
	}

	// Leave-One-Out classification.
	classifyRate := func() (float64, error) {
		t0 := time.Now()
		preds := core.Predictions(space, env.GT, *k)
		if len(preds) == 0 {
			return 0, fmt.Errorf("no predictions")
		}
		return float64(len(preds)) / time.Since(t0).Seconds(), nil
	}
	space.MaxProcs = 1
	run.Metrics.ClassifyPredsPerSSerial = best(*iters, classifyRate)
	space.MaxProcs = 0
	run.Metrics.ClassifyPredsPerS = best(*iters, classifyRate)
	fmt.Printf("classify LOO:   %12.0f preds/s  (serial %0.f, x%.2f)\n",
		run.Metrics.ClassifyPredsPerS, run.Metrics.ClassifyPredsPerSSerial,
		run.Metrics.ClassifyPredsPerS/run.Metrics.ClassifyPredsPerSSerial)

	// Silhouette; throughput counted in pairwise cells (the n² matrix the
	// naive algorithm would materialise).
	assign := core.Cluster(space, 3, *seed).Assign
	cells := float64(space.Len()) * float64(space.Len())
	silRate := func() (float64, error) {
		t0 := time.Now()
		sil, err := cluster.Silhouette(space, assign)
		if err != nil || len(sil) != space.Len() {
			return 0, fmt.Errorf("silhouette: %v", err)
		}
		return cells / time.Since(t0).Seconds(), nil
	}
	space.MaxProcs = 1
	run.Metrics.SilhouetteCellsPerSSerial = best(*iters, silRate)
	space.MaxProcs = 0
	run.Metrics.SilhouetteCellsPerS = best(*iters, silRate)
	fmt.Printf("silhouette:     %12.0f cells/s  (serial %0.f, x%.2f)\n",
		run.Metrics.SilhouetteCellsPerS, run.Metrics.SilhouetteCellsPerSSerial,
		run.Metrics.SilhouetteCellsPerS/run.Metrics.SilhouetteCellsPerSSerial)

	// Drift gate latency: what a darkvecd retrain cycle pays on top of
	// training — freeze the candidate (clustering + silhouette) and compare
	// it against an already-captured baseline. Lowest wall time kept.
	baseSnap, err := drift.Capture(space, assign, "baseline", nil, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	run.Metrics.DriftCheckS = bestLow(*iters, func() (float64, error) {
		t0 := time.Now()
		cand, err := drift.Capture(space, assign, "candidate", nil, nil)
		if err != nil {
			return 0, err
		}
		if _, err := drift.Compare(baseSnap, cand, drift.Options{}); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	})
	fmt.Printf("drift check:    %12.3f s\n", run.Metrics.DriftCheckS)

	// Durable ingestion: WAL append throughput under each fsync policy,
	// batched exactly like the ingest consumer (commit per 256 events), and
	// the boot replay over the full log. Fresh directory per iteration so
	// every run pays segment creation; the replay log is built once.
	walBench := func(policy wal.SyncPolicy) func() (float64, error) {
		return func() (float64, error) {
			dir, err := os.MkdirTemp("", "benchwal-*")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			l, err := wal.Open(dir, wal.Options{Policy: policy})
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i, e := range env.Full.Events {
				if err := l.Append(e); err != nil {
					return 0, err
				}
				if (i+1)%256 == 0 {
					if err := l.Commit(); err != nil {
						return 0, err
					}
				}
			}
			if err := l.Commit(); err != nil {
				return 0, err
			}
			rate := float64(env.Full.Len()) / time.Since(t0).Seconds()
			return rate, l.Close()
		}
	}
	run.Metrics.WALAppendAlwaysPerS = best(*iters, walBench(wal.SyncAlways))
	run.Metrics.WALAppendIntervalPerS = best(*iters, walBench(wal.SyncInterval))
	run.Metrics.WALAppendOffPerS = best(*iters, walBench(wal.SyncOff))
	fmt.Printf("wal append:     %12.0f events/s (always; interval %0.f, off %0.f)\n",
		run.Metrics.WALAppendAlwaysPerS, run.Metrics.WALAppendIntervalPerS, run.Metrics.WALAppendOffPerS)

	walDir, err := os.MkdirTemp("", "benchwal-replay-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(walDir)
	replayLog, err := wal.Open(walDir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	for _, e := range env.Full.Events {
		if err := replayLog.Append(e); err != nil {
			fmt.Fprintln(os.Stderr, "benchperf:", err)
			os.Exit(1)
		}
	}
	if err := replayLog.Commit(); err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	run.Metrics.WALReplayS = bestLow(*iters, func() (float64, error) {
		t0 := time.Now()
		n := 0
		if err := replayLog.Replay(func(trace.Event) error { n++; return nil }); err != nil {
			return 0, err
		}
		if n != env.Full.Len() {
			return 0, fmt.Errorf("replay returned %d of %d events", n, env.Full.Len())
		}
		return time.Since(t0).Seconds(), nil
	})
	replayLog.Close()
	fmt.Printf("wal replay:     %12.3f s        (%d events)\n", run.Metrics.WALReplayS, env.Full.Len())

	// Federation substrates: the aggregator's two hot paths against a
	// 3-vantage fleet of HTTP stand-ins. fed_merge_s is a cold intern-mirror
	// sync of all three vantages in parallel (what admission after a restart
	// costs); fed_query_p99_ms is the tail latency of a federated classify —
	// two HTTP hops, 3-way fan-out, vote merge.
	fleet := newBenchFleet(env, space, *k)
	defer fleet.close()
	run.Metrics.FedMergeS = bestLow(*iters, fleet.mergeOnce)
	fmt.Printf("fed merge:      %12.3f s        (3 vantages, %d senders each)\n",
		run.Metrics.FedMergeS, fleet.tableLen)
	p99, err := fleet.queryP99(*iters, 200)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	run.Metrics.FedQueryP99Ms = p99
	fmt.Printf("fed query p99:  %12.3f ms       (200 federated classifies)\n", run.Metrics.FedQueryP99Ms)

	rep.Runs = mergeRuns(*out, rep, run)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d run(s), total %s)\n", *out, len(rep.Runs), time.Since(start).Round(time.Millisecond))
}

// scaleTrace replicates a trace end-to-end factor times, shifting each
// copy past the previous one so the result is a valid (sorted) trace with
// factor× the events over factor× the span. The sender population is
// unchanged — the point is a bigger event stream for the throughput
// substrates, not a bigger vocabulary.
func scaleTrace(tr *trace.Trace, factor int) *trace.Trace {
	if factor <= 1 {
		return tr
	}
	first, last := tr.Span()
	span := last - first + 1
	big := &trace.Trace{Events: make([]trace.Event, 0, tr.Len()*factor)}
	for r := 0; r < factor; r++ {
		off := int64(r) * span
		for _, e := range tr.Events {
			e.Ts += off
			big.Events = append(big.Events, e)
		}
	}
	return big
}

// syntheticSpace builds a clustered embedding space of n rows: senders are
// drawn around 256 cohort centres with gaussian noise, mirroring the
// coordinated-scanner structure real darknet embeddings exhibit (and the
// regime an inverted-file index is designed for). Deterministic in seed.
func syntheticSpace(n, dim int, seed uint64) *embed.Space {
	const centers = 256
	rng := netutil.NewRand(seed*0x9e3779b9 + 7)
	ctr := make([][]float32, centers)
	for c := range ctr {
		ctr[c] = make([]float32, dim)
		for d := range ctr[c] {
			ctr[c][d] = float32(rng.NormFloat64())
		}
	}
	words := make([]string, n)
	vecs := make([][]float32, n)
	for i := 0; i < n; i++ {
		words[i] = "s" + netutil.IPv4(uint32(i)).String()
		base := ctr[i%centers]
		v := make([]float32, dim)
		for d := range v {
			v[d] = base[d] + 0.35*float32(rng.NormFloat64())
		}
		vecs[i] = v
	}
	s, err := embed.New(words, vecs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
	return s
}

// mergeRuns folds this run into any runs already recorded in the output
// file: an existing entry with the same GOMAXPROCS (and compatible shared
// fields) is replaced, others are kept, and the result is sorted by
// GOMAXPROCS. An unreadable or old-schema file just starts fresh.
func mergeRuns(path string, rep report, run runEntry) []runEntry {
	runs := []runEntry{run}
	data, err := os.ReadFile(path)
	if err != nil {
		return runs
	}
	var prev report
	if json.Unmarshal(data, &prev) != nil || prev.GoVersion != rep.GoVersion ||
		prev.GOOS != rep.GOOS || prev.GOARCH != rep.GOARCH || prev.Options != rep.Options {
		return runs
	}
	for _, r := range prev.Runs {
		if r.GoMaxProcs != run.GoMaxProcs {
			runs = append(runs, r)
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].GoMaxProcs < runs[j].GoMaxProcs })
	return runs
}

// best runs fn iters times and keeps the highest throughput — the standard
// best-of-N discipline that filters scheduler noise out of rate measurements.
func best(iters int, fn func() (float64, error)) float64 {
	var top float64
	for i := 0; i < iters; i++ {
		rate, err := fn()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchperf:", err)
			os.Exit(1)
		}
		if rate > top {
			top = rate
		}
	}
	return top
}

// bestLow is best for latency metrics: lowest value kept.
func bestLow(iters int, fn func() (float64, error)) float64 {
	var low float64
	for i := 0; i < iters; i++ {
		v, err := fn()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchperf:", err)
			os.Exit(1)
		}
		if i == 0 || v < low {
			low = v
		}
	}
	return low
}
