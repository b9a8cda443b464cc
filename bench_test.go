package darkvec_test

// One benchmark per table and figure of the paper, driving the same
// internal/experiments code that cmd/experiments uses, plus
// micro-benchmarks of the hot substrates (Word2Vec training, k-NN search,
// Louvain, silhouette, packet decode, pcap I/O, corpus construction,
// trace generation, WAL append/replay, federation).
//
// The experiment benchmarks share one Env per operating point (built
// outside the timed region); embeddings are pre-trained so each bench
// measures its experiment's analysis work. The *Train benches measure the
// actual training.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/darkvec/darkvec"
	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/experiments"
	"github.com/darkvec/darkvec/internal/federation"
	"github.com/darkvec/darkvec/internal/graphx"
	"github.com/darkvec/darkvec/internal/knn"
	"github.com/darkvec/darkvec/internal/louvain"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/w2v"
	"github.com/darkvec/darkvec/internal/wal"
)

// benchOpts is the single-core bench operating point: small enough to keep
// the full suite in minutes, large enough that every experiment has all
// classes present.
var benchOpts = experiments.Options{
	Seed: 1, Days: 8, Scale: 0.02, Rate: 0.05,
	Dim: 24, Window: 10, Epochs: 2,
}

var (
	envOnce sync.Once
	envVal  *experiments.Env
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal = experiments.NewEnv(benchOpts)
		// Pre-train the embeddings the analysis experiments share, so their
		// benchmarks time the analysis, not a cache miss.
		for _, kind := range []core.ServiceKind{core.ServiceSingle, core.ServiceAuto, core.ServiceDomain} {
			if _, err := envVal.Embedding(kind, benchOpts.Days); err != nil {
				panic(err)
			}
		}
	})
	return envVal
}

// benchExperiment times one registered experiment end to end.
func benchExperiment(b *testing.B, id string) {
	env := benchEnv(b)
	runner, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s returned no rows", id)
		}
	}
}

func BenchmarkTable1DatasetStats(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkFig1aPortECDF(b *testing.B)          { benchExperiment(b, "fig1a") }
func BenchmarkFig1bSenderActivity(b *testing.B)    { benchExperiment(b, "fig1b") }
func BenchmarkFig2aSenderECDF(b *testing.B)        { benchExperiment(b, "fig2a") }
func BenchmarkFig2bCumulativeSenders(b *testing.B) { benchExperiment(b, "fig2b") }
func BenchmarkTable2GroundTruth(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkFig3ServiceHeatmap(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkTable6Baseline(b *testing.B)         { benchExperiment(b, "table6") }
func BenchmarkFig6TrainingWindow(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7KSweep(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkTable4PerClass(b *testing.B)         { benchExperiment(b, "table4") }
func BenchmarkFig9ActivityPatterns(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10KPrime(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11Silhouette(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkTable5Clusters(b *testing.B)         { benchExperiment(b, "table5") }
func BenchmarkFig12to15SubClusters(b *testing.B)   { benchExperiment(b, "fig12-15") }
func BenchmarkAblationClusterers(b *testing.B)     { benchExperiment(b, "ablation") }

// BenchmarkTable3Comparison trains DarkVec, IP2VEC and DANTE; it is the
// expensive headline comparison, measured end to end including training.
func BenchmarkTable3Comparison(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig8GridSearch trains the full c × V grid; the first iteration
// pays all trainings, later ones hit the Env cache (the paper's Fig 8
// bottom row is exactly this training cost).
func BenchmarkFig8GridSearch(b *testing.B) { benchExperiment(b, "fig8") }

// Extension experiments (§8 discussion points implemented as code).
func BenchmarkTransfer(b *testing.B)             { benchExperiment(b, "transfer") }
func BenchmarkIncrementalRefresh(b *testing.B)   { benchExperiment(b, "incremental") }
func BenchmarkAblationArchitecture(b *testing.B) { benchExperiment(b, "ablation-w2v") }
func BenchmarkNeighbourPurity(b *testing.B)      { benchExperiment(b, "neighbours") }

// --- substrate micro-benchmarks ---

// BenchmarkSimulate measures synthetic trace generation: a small trace on a
// fresh seed per iteration, and the serve-wide benchmark's dataset.
func BenchmarkSimulate(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  darkvec.SimConfig
	}{
		{"small", darkvec.SimConfig{Days: 5, Scale: 0.02, Rate: 0.05}},
		{"serve-wide", darkvec.SimConfig{Seed: 1, Days: 2, Scale: 0.1, Rate: 0.1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := tc.cfg
				if cfg.Seed == 0 {
					cfg.Seed = uint64(i + 1)
				}
				if darkvec.Simulate(cfg).Trace.Len() == 0 {
					b.Fatal("empty trace")
				}
			}
		})
	}
}

// BenchmarkTraceSort measures the stable timestamp sort every trace
// constructor ends in, on the serve-wide benchmark's 260,933-event shape:
// a seeded permutation (the worst case), and the ordered trace with 1 % of
// its events delivered up to 1,000 events late, as a ring fed by several
// vantages or a late link holds them.
func BenchmarkTraceSort(b *testing.B) {
	ordered := darkvec.Simulate(darkvec.SimConfig{Seed: 1, Days: 2, Scale: 0.1, Rate: 0.1}).Trace.Events
	r := netutil.NewRand(3)
	shuffled := slices.Clone(ordered)
	for i := len(shuffled) - 1; i > 0; i-- { // Fisher–Yates
		j := r.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	late := slices.Clone(ordered)
	for i := range late {
		if r.Intn(100) == 0 {
			j := min(len(late)-1, i+1+r.Intn(1000))
			e := late[i]
			copy(late[i:j], late[i+1:j+1])
			late[j] = e
		}
	}
	for _, tc := range []struct {
		name   string
		events []darkvec.Event
	}{{"shuffled", shuffled}, {"late", late}} {
		b.Run(tc.name, func(b *testing.B) {
			tr := &darkvec.Trace{Events: make([]darkvec.Event, len(tc.events))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(tr.Events, tc.events)
				b.StartTimer()
				tr.Sort()
			}
		})
	}
}

// BenchmarkAppendCSV measures the one CSV line formatter behind WriteCSV,
// darkgen -live and the benchmark's firehose, per line.
func BenchmarkAppendCSV(b *testing.B) {
	events := darkvec.Simulate(darkvec.SimConfig{Seed: 1, Days: 5, Scale: 0.02, Rate: 0.05}).Trace.Events
	line := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line = events[i%len(events)].AppendCSV(line[:0])
	}
}

// BenchmarkWriteCSV measures writing the serve-wide benchmark's seed trace,
// 260,933 events, as CSV to a discarding writer: the formatter plus
// WriteCSV's buffering, per trace and per line.
func BenchmarkWriteCSV(b *testing.B) {
	tr := darkvec.Simulate(darkvec.SimConfig{Seed: 1, Days: 2, Scale: 0.1, Rate: 0.1}).Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/line")
}

// BenchmarkWindowCut measures what a retrain cycle holds the live window's
// lock for, on the serve-wide benchmark's shape: its 260,933 events fed
// through a 190,000-event ring, which wraps. cut_ns is Window.Cut (the
// trainable copy, the /v1/stats summary and the span, in one acquisition),
// snapshot_ns the SnapshotActive(1) copy it replaces, and cut/snapshot their
// ratio. Each call's time is its lock hold plus, after the unlock, one
// linear order check of its copy (the ring arrives in order) and, for the
// cut, two date formats.
func BenchmarkWindowCut(b *testing.B) {
	events := darkvec.Simulate(darkvec.SimConfig{Seed: 1, Days: 2, Scale: 0.1, Rate: 0.1}).Trace.Events
	w := stream.NewWindow(stream.WindowConfig{MaxEvents: 190000, MaxAge: -1})
	w.AddBatch(events)
	minPackets := core.DefaultConfig().MinPackets
	var cutT, snapT time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		cut := w.Cut(minPackets)
		cutT += time.Since(start)
		start = time.Now()
		snap := w.SnapshotActive(1)
		snapT += time.Since(start)
		if cut.Stats.Packets != snap.Len() {
			b.Fatalf("cut summarises %d events, the snapshot holds %d", cut.Stats.Packets, snap.Len())
		}
	}
	b.ReportMetric(float64(cutT.Nanoseconds())/float64(b.N), "cut_ns")
	b.ReportMetric(float64(snapT.Nanoseconds())/float64(b.N), "snapshot_ns")
	b.ReportMetric(float64(cutT)/float64(snapT), "cut/snapshot")
}

// BenchmarkCorpusBuild measures §5.2 sequence construction on the
// interned integer token path: serial, parallel (GOMAXPROCS workers, asked
// for: the automatic choice is serial below 2¹⁸ events), and the automatic
// choice with a warm shared interner — the steady-state retrain cost.
func BenchmarkCorpusBuild(b *testing.B) {
	env := benchEnv(b)
	def := services.NewDomain()
	active := env.Full.ActiveSenders(10)
	filtered := env.Full.FilterSenders(active)
	run := func(b *testing.B, opts corpus.Options) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := corpus.BuildOpts(filtered, def, corpus.DefaultDeltaT, opts)
			if c.Tokens() == 0 {
				b.Fatal("empty corpus")
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, corpus.Options{Workers: 1}) })
	b.Run("parallel", func(b *testing.B) { run(b, corpus.Options{Workers: runtime.GOMAXPROCS(0)}) })
	b.Run("warm-interner", func(b *testing.B) {
		in := corpus.NewInterner()
		corpus.BuildOpts(filtered, def, corpus.DefaultDeltaT, corpus.Options{Interner: in})
		run(b, corpus.Options{Interner: in})
	})
}

// BenchmarkW2VTrainEpoch measures skip-gram training throughput on the
// daemon's interned token path (pairs/sec is the number to compare with
// Table 3's ETA column).
func BenchmarkW2VTrainEpoch(b *testing.B) {
	env := benchEnv(b)
	def := services.NewDomain()
	active := env.Full.ActiveSenders(10)
	filtered := env.Full.FilterSenders(active)
	c := corpus.BuildOpts(filtered, def, corpus.DefaultDeltaT, corpus.Options{})
	enc := w2v.Encoded{Sequences: c.TokenSequences(), Words: c.Interner().Strings(), Counts: c.Counts}
	cfg := w2v.Config{
		Dim: benchOpts.Dim, Window: benchOpts.Window, Epochs: 1,
		Seed: 1, ShrinkWindow: true, PadToken: "NULL",
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		m, err := w2v.TrainEncodedWithOptions(enc, cfg, w2v.TrainOptions{})
		if err != nil {
			b.Fatal(err)
		}
		pairs = m.Pairs
	}
	b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkKNNQuery measures one exact k-NN lookup over the eval space.
func BenchmarkKNNQuery(b *testing.B) {
	env := benchEnv(b)
	emb, err := env.Embedding(core.ServiceDomain, benchOpts.Days)
	if err != nil {
		b.Fatal(err)
	}
	space, _ := emb.EvalSpace(env.Last, env.Active)
	if space.Len() == 0 {
		b.Fatal("empty space")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nn := space.KNN(i%space.Len(), 7); len(nn) == 0 {
			b.Fatal("no neighbours")
		}
	}
}

// BenchmarkKNNAll measures the batched engine computing every row's k
// nearest neighbours over the eval space — the O(n²·V) substrate under the
// classifier, the k'-NN graph and the silhouette sweep; bench/ tracks the
// same pass per workload as `embed.allknn_rows_per_s`.
func BenchmarkKNNAll(b *testing.B) {
	env := benchEnv(b)
	emb, err := env.Embedding(core.ServiceDomain, benchOpts.Days)
	if err != nil {
		b.Fatal(err)
	}
	space, _ := emb.EvalSpace(env.Last, env.Active)
	if space.Len() == 0 {
		b.Fatal("empty space")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nn := space.AllKNN(7); len(nn) != space.Len() {
			b.Fatal("length mismatch")
		}
	}
	b.ReportMetric(float64(space.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkClassifyLOO measures the full Leave-One-Out classification pass
// (one labeled-neighbour-aware k-NN selection plus voting per word).
func BenchmarkClassifyLOO(b *testing.B) {
	env := benchEnv(b)
	emb, err := env.Embedding(core.ServiceDomain, benchOpts.Days)
	if err != nil {
		b.Fatal(err)
	}
	space, _ := emb.EvalSpace(env.Last, env.Active)
	var preds int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.Predictions(space, env.GT, 7)
		if len(p) == 0 {
			b.Fatal("no predictions")
		}
		preds = len(p)
	}
	b.ReportMetric(float64(preds)*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkClassifyOne measures one /v1/classify-shaped question — the k-NN
// vote for a single sender through a default-calibrated IVF index, every
// sender labeled as in a daemon generation — asked the two ways the API
// allows: percall hands knn.ClassifyOneIndexed a label map, which resolves
// the whole table per question; classifier asks a knn.Classifier resolved
// once, outside the timed region, the way apiserver holds one per
// generation. B/op is the figure to read: percall grows with the space,
// classifier does not.
func BenchmarkClassifyOne(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"4k", 4000}, {"100k", 100000}} {
		var (
			once   sync.Once
			space  *embed.Space
			labels map[string]string
		)
		setup := func(b *testing.B) {
			once.Do(func() { space, labels = clusteredSpace(b, size.n) })
		}
		run := func(b *testing.B, one func(word string) (knn.Prediction, bool)) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p, ok := one(space.Words[i*7919%space.Len()]); !ok || p.Support <= 0 {
					b.Fatalf("prediction %+v, %v", p, ok)
				}
			}
		}
		b.Run("percall/"+size.name, func(b *testing.B) {
			setup(b)
			run(b, func(w string) (knn.Prediction, bool) {
				return knn.ClassifyOneIndexed(space, space.ANN(), labels, w, 7)
			})
		})
		b.Run("classifier/"+size.name, func(b *testing.B) {
			setup(b)
			c := knn.NewClassifier(space, space.ANN(), labels)
			run(b, func(w string) (knn.Prediction, bool) { return c.One(w, 7) })
		})
	}
}

// clusteredSpace is the index benchmarks' synthetic space: n 24-dim senders
// around 64 cohort centres (coordinated scanners, the regime IVF is built
// for), labeled in 9 classes by cohort, with a calibrated IVF attached.
func clusteredSpace(b *testing.B, n int) (*embed.Space, map[string]string) {
	r := netutil.NewRand(11)
	const dim, cohorts = 24, 64
	centers := make([][]float64, cohorts)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = r.NormFloat64()
		}
	}
	words := make([]string, n)
	vecs := make([][]float32, n)
	labels := make(map[string]string, n)
	for i := range vecs {
		words[i] = fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
		vecs[i] = make([]float32, dim)
		for d := range vecs[i] {
			vecs[i][d] = float32(centers[i%cohorts][d] + 0.25*r.NormFloat64())
		}
		labels[words[i]] = fmt.Sprintf("class%d", i%cohorts%9)
	}
	space, err := embed.New(words, vecs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err = space.BuildIVF(embed.IVFOptions{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	return space, labels
}

// BenchmarkKNNBatch100k measures batched 10-NN over the 100k-row clustered
// space (a fifth of the paper's 544k senders) for 2048 shared query rows,
// exact and through the IVF index, which also reports recall@10 vs exact.
func BenchmarkKNNBatch100k(b *testing.B) {
	space, _ := clusteredSpace(b, 100000)
	queries := make([]int, 2048)
	for i := range queries {
		queries[i] = i * space.Len() / len(queries)
	}
	var exact [][]embed.Neighbor
	batch := func(search func([]int, int, []bool, func(int, []embed.Neighbor))) [][]embed.Neighbor {
		nn := make([][]embed.Neighbor, len(queries))
		search(queries, 10, nil, func(qi int, got []embed.Neighbor) { nn[qi] = append([]embed.Neighbor(nil), got...) })
		return nn
	}
	run := func(b *testing.B, search func([]int, int, []bool, func(int, []embed.Neighbor))) (nn [][]embed.Neighbor) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nn = batch(search)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(queries))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		return nn
	}
	b.Run("exact", func(b *testing.B) { exact = run(b, space.Search) })
	b.Run("ivf", func(b *testing.B) {
		ann := run(b, space.ANN().Search)
		if exact == nil {
			exact = batch(space.Search)
		}
		hit := 0
		for q := range exact {
			for _, nb := range ann[q] {
				if slices.ContainsFunc(exact[q], func(e embed.Neighbor) bool { return e.Row == nb.Row }) {
					hit++
				}
			}
		}
		b.ReportMetric(float64(hit)/float64(len(queries)*10), "recall@10")
	})
}

// BenchmarkSilhouetteParallel measures the row-parallel silhouette and
// reports throughput in pairwise cells/s (the n² distance matrix the naive
// algorithm would materialise); bench/ has `cluster.silhouette_speedup`.
func BenchmarkSilhouetteParallel(b *testing.B) {
	env := benchEnv(b)
	emb, err := env.Embedding(core.ServiceDomain, benchOpts.Days)
	if err != nil {
		b.Fatal(err)
	}
	space, _ := emb.EvalSpace(env.Last, env.Active)
	cl := core.Cluster(space, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sil, err := darkvec.Silhouette(space, cl.Assign); err != nil || len(sil) != space.Len() {
			b.Fatalf("silhouette: %v", err)
		}
	}
	n := float64(space.Len())
	b.ReportMetric(n*n*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkLouvain measures community detection on the k'-NN graph.
func BenchmarkLouvain(b *testing.B) {
	env := benchEnv(b)
	emb, err := env.Embedding(core.ServiceDomain, benchOpts.Days)
	if err != nil {
		b.Fatal(err)
	}
	space, _ := emb.EvalSpace(env.Last, env.Active)
	g := graphx.KNNGraph(space, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := louvain.Run(g, louvain.Options{Seed: 1})
		if res.Communities == 0 {
			b.Fatal("no communities")
		}
	}
}

// BenchmarkSilhouette measures the exact cosine silhouette.
func BenchmarkSilhouette(b *testing.B) {
	env := benchEnv(b)
	emb, err := env.Embedding(core.ServiceDomain, benchOpts.Days)
	if err != nil {
		b.Fatal(err)
	}
	space, _ := emb.EvalSpace(env.Last, env.Active)
	cl := core.Cluster(space, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sil, err := darkvec.Silhouette(space, cl.Assign); err != nil || len(sil) != space.Len() {
			b.Fatalf("silhouette: %v", err)
		}
	}
}

// BenchmarkPacketDecode measures the allocation-free frame decode on one
// frame WritePCAP wrote.
func BenchmarkPacketDecode(b *testing.B) {
	env := benchEnv(b)
	var frame bytes.Buffer
	one := &darkvec.Trace{Events: env.Full.Events[:1]}
	if err := darkvec.WriteTracePCAP(&frame, one); err != nil {
		b.Fatal(err)
	}
	frameBytes := frame.Bytes()[24+16:] // past the global and record headers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Decode(frameBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCAPRoundTrip measures serialising and re-reading 1000 packets.
func BenchmarkPCAPRoundTrip(b *testing.B) {
	env := benchEnv(b)
	sub := &darkvec.Trace{Events: env.Full.Events[:1000]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := darkvec.WriteTracePCAP(&buf, sub); err != nil {
			b.Fatal(err)
		}
		tr, _, err := darkvec.ReadTracePCAP(&buf, darkvec.Budget{})
		if err != nil && err != io.EOF {
			b.Fatal(err)
		}
		if tr.Len() != sub.Len() {
			b.Fatalf("lost packets: %d != %d", tr.Len(), sub.Len())
		}
	}
}

// BenchmarkReadCSVStrict / BenchmarkReadCSVBudgeted quantify the cost of
// the error-budget bookkeeping on a clean trace — the common case, where
// tolerant ingestion should be nearly free.
func benchCSVIngest(b *testing.B, budget darkvec.Budget) {
	env := benchEnv(b)
	sub := &darkvec.Trace{Events: env.Full.Events[:10000]}
	var buf bytes.Buffer
	if err := darkvec.WriteTraceCSV(&buf, sub); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _, err := darkvec.ReadTraceCSV(bytes.NewReader(raw), budget)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != sub.Len() {
			b.Fatalf("lost events: %d != %d", tr.Len(), sub.Len())
		}
	}
}

func BenchmarkReadCSVStrict(b *testing.B)   { benchCSVIngest(b, darkvec.Budget{}) }
func BenchmarkReadCSVBudgeted(b *testing.B) { benchCSVIngest(b, darkvec.DefaultBudget()) }

// appendWAL writes the trace into a fresh log under dir, committing every
// 256 events as the ingest consumer does.
func appendWAL(b *testing.B, dir string, policy wal.SyncPolicy, tr *darkvec.Trace) *wal.Log {
	l, err := wal.Open(dir, wal.Options{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	for i, e := range tr.Events {
		if err := l.Append(e); err != nil {
			b.Fatal(err)
		}
		if (i+1)%256 == 0 || i == tr.Len()-1 {
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	return l
}

// BenchmarkWALAppend prices each -walfsync policy on the hot ingest path.
func BenchmarkWALAppend(b *testing.B) {
	tr := benchEnv(b).Full
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncOff} {
		b.Run(policy.String(), func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				l := appendWAL(b, dir, policy, tr)
				b.StopTimer()
				if err := errors.Join(l.Close(), os.RemoveAll(dir)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkWALReplay measures the boot replay that rebuilds the window.
func BenchmarkWALReplay(b *testing.B) {
	tr := benchEnv(b).Full
	l := appendWAL(b, b.TempDir(), wal.SyncOff, tr)
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(func(darkvec.Event) error { n++; return nil }); err != nil || n != tr.Len() {
			b.Fatalf("replayed %d of %d events: %v", n, tr.Len(), err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkFederation times darkfed's hot paths on 3 HTTP vantage stand-ins
// behind a real aggregator: each interns every sender (the worst-case merge)
// and answers classify from the LOO predictions for two senders in three.
// intern-sync cold-syncs all three mirrors in parallel, as admission after a
// restart does; classify reports a federated question's p99_ms.
func BenchmarkFederation(b *testing.B) {
	env := benchEnv(b)
	emb, err := env.Embedding(core.ServiceDomain, benchOpts.Days)
	if err != nil {
		b.Fatal(err)
	}
	space, _ := emb.EvalSpace(env.Last, env.Active)
	preds := core.Predictions(space, env.GT, 7)
	senders := env.Full.SenderCounts()
	var clients []*federation.Client
	var cfgs []federation.VantageConfig
	for vi, name := range []string{"north", "south", "west"} {
		table, mine := corpus.NewInterner(), map[string]knn.Prediction{}
		for ip := range senders {
			table.Intern(ip)
		}
		for i, p := range preds {
			if i%3 != vi {
				mine[p.Word] = p
			}
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz/ready", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, `{"status":"ready"}`) })
		mux.Handle("GET /v1/intern", federation.NewInternHandler(federation.InternSource{
			Vantage: name, Epoch: federation.NewEpoch(), Table: table,
			Generation: func() string { return "v000001" },
		}))
		mux.HandleFunc("GET /v1/classify", func(w http.ResponseWriter, r *http.Request) {
			p, ok := mine[r.URL.Query().Get("ip")]
			if !ok {
				http.Error(w, `{"error":"sender not in embedding"}`, http.StatusNotFound)
				return
			}
			_ = json.NewEncoder(w).Encode(apiserver.ClassifyResponse{IP: p.Word, Class: p.Label, Support: p.Support, AvgSim: p.AvgSim})
		})
		srv := httptest.NewServer(mux)
		b.Cleanup(srv.Close)
		clients = append(clients, federation.NewClient(name, srv.URL, federation.ClientConfig{}))
		cfgs = append(cfgs, federation.VantageConfig{Name: name, URL: srv.URL})
	}
	agg, err := federation.NewAggregator(federation.Config{Vantages: cfgs, Poll: time.Hour, K: 7, Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	go agg.Run(ctx)
	front := httptest.NewServer(agg)
	b.Cleanup(front.Close)
	waitAllVantagesReady(b, front.URL)

	b.Run("intern-sync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			errs := make(chan error, len(clients))
			for _, c := range clients {
				go func() {
					synced, _, err := c.SyncIntern(context.Background(), "", nil)
					if err == nil && len(synced) != len(senders) {
						err = fmt.Errorf("%s synced %d of %d senders", c.Name, len(synced), len(senders))
					}
					errs <- err
				}()
			}
			for range clients {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("classify", func(b *testing.B) {
		lat := make([]float64, b.N)
		for i := range lat {
			q := preds[i*5%len(preds)].Word
			t0 := time.Now()
			resp, err := http.Get(front.URL + "/v1/federated/classify?ip=" + q)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drain so keep-alive reuses the conn
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("federated classify %s -> %d", q, resp.StatusCode)
			}
			lat[i] = time.Since(t0).Seconds() * 1000
		}
		slices.Sort(lat)
		b.ReportMetric(lat[(len(lat)*99+99)/100-1], "p99_ms")
	})
}

// waitAllVantagesReady polls an aggregator's readiness until every vantage
// has been admitted.
func waitAllVantagesReady(b *testing.B, url string) {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(url + "/healthz/ready")
		if err != nil {
			b.Fatal(err)
		}
		var ready struct{ Status string }
		err = json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err == nil && ready.Status == "ready" {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("aggregator not ready after 30s: status %q", ready.Status)
		}
	}
}

// BenchmarkHoneypotVerify replays the SSH cluster against a live loopback
// honeypot (§7.3.3's verification step).
func BenchmarkHoneypotVerify(b *testing.B) { benchExperiment(b, "honeypot") }

// BenchmarkAblationDeltaT sweeps the sequence window ΔT (paper footnote 5).
func BenchmarkAblationDeltaT(b *testing.B) { benchExperiment(b, "ablation-deltat") }
