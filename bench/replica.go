package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/drift"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/graphx"
	"github.com/darkvec/darkvec/internal/knn"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/louvain"
	"github.com/darkvec/darkvec/internal/modelstore"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
	"github.com/darkvec/darkvec/internal/wal"
)

// The replica replays a workload's inputs in process through each layer's
// public functions, in the order darkvecd's run/retrainOnce/serve and the
// ingest consumer call them, with a span around every call. It exists only
// to attribute time: end-to-end numbers always come from the real daemon.
// Spans are recorded here, around the calls into each layer; nothing inside
// the program is instrumented.

const (
	daemonSeed   = 1  // darkvecd -seed default: clustering and index seeding
	daemonDriftK = 10 // darkvecd -driftk default
	replicaReqs  = 3000
	ingestSample = 1 << 16 // events pushed through the WAL/window micro-trace
)

// generation is what one replica cycle leaves behind for the next one and
// for the query trace.
type generation struct {
	tr    *trace.Trace
	gt    *labels.Set
	emb   *core.Embedding
	space *embed.Space
	srv   *apiserver.Server
	warm  *w2v.WarmSeed // the seed this generation was trained from; nil when cold
}

// labels is the word → class table apiserver.New builds for its handlers.
func (g generation) labels() map[string]string {
	lbl := make(map[string]string, g.space.Len())
	for _, w := range g.space.Words {
		if ip, err := netutil.ParseIPv4(w); err == nil {
			lbl[w] = g.gt.Class(ip)
		}
	}
	return lbl
}

type replica struct {
	w       workload
	seed    uint64
	seconds int
	dir     string
	ds      *dataset
	rec     *recorder
	res     *result
	cfg     core.Config

	win       *stream.Window
	store     *modelstore.Store
	prev      *w2v.Model
	driftPrev *drift.Snapshot
	gens      int64
	last      generation
}

// runReplica produces every per-layer metric of one workload.
func runReplica(ctx context.Context, env *environment, w workload, seed uint64, seconds int) (*result, error) {
	dir, err := os.MkdirTemp(env.tmp, w.name+"-traced-")
	if err != nil {
		return nil, err
	}
	r := &replica{
		w: w, seed: seed, seconds: seconds, dir: dir, rec: newRecorder(), cfg: w.config(),
		res: newResult(w, true, seed, seconds),
	}
	live := scaled(w.liveS, seconds)
	if r.ds, err = generate(w, seed, int(live/w.markerEvery)+1); err != nil {
		return nil, err
	}
	if err := r.ds.write(dir); err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		fn   func(context.Context) error
	}{
		{"generations", r.generations},
		{"reboot", r.reboot},
		{"queries", r.queries},
		{"layers", r.layers},
		{"ingest", r.ingest},
	}
	for _, s := range steps {
		if err := s.fn(ctx); err != nil {
			return nil, fmt.Errorf("%s/traced/%s: %w", w.name, s.name, err)
		}
	}
	r.summarise()
	if err := r.rec.writeChrome(filepath.Join(env.benchDir, "out", "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	r.res.Correct = len(r.res.Checks) == 0 && r.res.Failed == 0
	return r.res, nil
}

// generations replays the boot generation (cold) and then warm cycles, each
// fed the events that would have arrived while the previous one trained.
func (r *replica) generations(ctx context.Context) error {
	var err error
	if r.store, err = modelstore.Open(filepath.Join(r.dir, "store"), modelstore.Options{Keep: 3}); err != nil {
		return err
	}
	r.win = stream.NewWindow(stream.WindowConfig{
		MaxEvents: r.ds.seed.Len() + len(r.ds.feed),
		MaxAge:    int64((192 * time.Hour).Seconds()),
	})
	var seed *trace.Trace
	r.rec.do("trace.read_file", 0, func() { seed, _, err = trace.ReadFile(r.ds.seedPath, 0) })
	if err != nil {
		return err
	}
	r.win.AddBatch(seed.Events)
	if err := r.generation(false); err != nil {
		return err
	}

	budget := scaled(r.w.liveS, r.seconds) * 6 / 10
	start := time.Now()
	fed := 0
	took := 500 * time.Millisecond
	for time.Since(start) < budget && ctx.Err() == nil {
		n := int(took.Seconds() * float64(r.w.feedRate))
		if fed+n > len(r.ds.feed) {
			break
		}
		r.win.AddBatch(r.ds.feed[fed : fed+n])
		fed += n
		t0 := time.Now()
		if err := r.generation(true); err != nil {
			return err
		}
		took = time.Since(t0)
	}
	r.res.op(int(r.gens), 0)
	r.res.check(r.gens >= 4, "only %d replica generations fit the window", r.gens)
	return r.identical()
}

// generation is one cycle in retrainOnce's order: snapshot, labels, train
// (split into the steps TrainEmbeddingOpts performs), drift capture and
// compare, publish with load-back verification, then serve's EvalSpace,
// index build and apiserver.New.
func (r *replica) generation(warm bool) error {
	rec, id := r.rec, r.gens
	r.gens++
	root := rec.begin("darkvecd.generation", id)
	defer rec.end(root)

	var g generation
	rec.do("stream.snapshot", id, func() {
		if warm {
			g.tr = r.win.SnapshotActive(1)
		} else {
			g.tr = r.win.Snapshot()
		}
	})
	rec.set("stream.window_events", float64(g.tr.Len()))
	rec.do("labels.build", id, func() { g.gt = labels.Build(g.tr, r.ds.feeds) })

	if warm {
		g.warm = &w2v.WarmSeed{Prev: r.prev, PrevPerm: r.prev.Perm}
	}
	var err error
	if g.emb, err = r.train(g.tr, g.warm, id); err != nil {
		return err
	}

	// captureGeneration + gateCheck.
	var (
		space *embed.Space
		graph *graphx.Graph
		lv    louvain.Result
		snap  *drift.Snapshot
	)
	rec.do("core.evalspace", id, func() { space, _ = g.emb.EvalSpace(g.tr.LastDays(1), nil) })
	rec.do("graphx.knngraph", id, func() { graph = graphx.KNNGraph(space, r.cfg.KPrime) })
	rec.do("louvain.run", id, func() { lv = louvain.Run(graph, louvain.Options{Seed: daemonSeed}) })
	rec.set("louvain.clusters", float64(lv.Communities))
	in := r.win.Interner()
	rec.do("drift.capture", id, func() {
		snap, err = drift.Capture(space, lv.Community, fmt.Sprintf("candidate-%d", id),
			func(word string) string {
				ip, perr := netutil.ParseIPv4(word)
				if perr != nil {
					return ""
				}
				if c := g.gt.Class(ip); c != labels.Unknown {
					return c
				}
				return ""
			},
			func(word string) (uint32, bool) {
				ip, perr := netutil.ParseIPv4(word)
				if perr != nil {
					return 0, false
				}
				return in.ID(ip)
			})
	})
	if err != nil {
		return err
	}
	if r.driftPrev != nil {
		var rep *drift.Report
		rec.do("drift.compare", id, func() { rep, err = drift.Compare(r.driftPrev, snap, drift.Options{K: daemonDriftK}) })
		if err != nil {
			return err
		}
		rec.set("drift.score", rep.Score)
	}
	r.driftPrev = snap

	// publishVerified.
	var v modelstore.Version
	rec.do("modelstore.publish", id, func() { v, err = r.store.Publish(g.emb.Model.Save) })
	if err != nil {
		return err
	}
	rec.do("modelstore.verify", id, func() {
		rc, oerr := r.store.Open(v)
		if oerr != nil {
			err = oerr
			return
		}
		_, err = w2v.Load(rc)
		rc.Close()
	})
	if err != nil {
		return err
	}

	if err := r.serveGeneration(&g, v.String(), id); err != nil {
		return err
	}
	r.prev, r.last = g.emb.Model, g
	return nil
}

// train is TrainEmbeddingOpts taken apart at its layer boundaries.
func (r *replica) train(tr *trace.Trace, warm *w2v.WarmSeed, id int64) (*core.Embedding, error) {
	rec, cfg := r.rec, r.cfg
	var (
		active   map[netutil.IPv4]bool
		filtered *trace.Trace
		corp     *corpus.Corpus
		model    *w2v.Model
		err      error
	)
	rec.do("trace.active_filter", id, func() {
		active = tr.ActiveSenders(cfg.MinPackets)
		filtered = tr.FilterSenders(active)
	})
	def, err := cfg.Definition(filtered)
	if err != nil {
		return nil, err
	}
	rec.do("corpus.build", id, func() {
		corp = corpus.BuildOpts(filtered, def, cfg.DeltaT, corpus.Options{Interner: r.win.Interner()})
	})
	rec.set("corpus.tokens", float64(corp.Tokens()))
	rec.set("corpus.sequences", float64(len(corp.Sequences)))
	words := corp.Interner().Strings()
	if len(words) > len(corp.Counts) {
		words = words[:len(corp.Counts)]
	}
	name := "w2v.train_cold"
	if warm != nil {
		name = "w2v.train"
	}
	start := time.Now()
	rec.do(name, id, func() {
		model, err = w2v.TrainEncodedWithOptions(w2v.Encoded{
			Sequences: corp.TokenSequences(), Words: words, Counts: corp.Counts,
		}, cfg.W2V, w2v.TrainOptions{Warm: warm})
	})
	if err != nil {
		return nil, err
	}
	epochs := cfg.W2V.Epochs
	if model.Warm != nil {
		epochs = model.Warm.Epochs
		rec.set("w2v.warm_seeded", float64(model.Warm.Seeded))
		rec.set("w2v.warm_fresh", float64(model.Warm.Fresh))
		rec.set("w2v.epochs", float64(epochs))
	}
	var pairs int64
	rec.do("core.train_glue", id, func() {
		pairs = corp.SkipGrams(cfg.W2V.Window, cfg.W2V.PadToken != "") * int64(epochs)
	})
	if warm != nil {
		rec.set("w2v.pairs", float64(pairs))
	}
	return &core.Embedding{
		Model: model, Corpus: corp, Active: active,
		TrainTime: time.Since(start), SkipGrams: pairs, Epochs: epochs,
	}, nil
}

// serveGeneration is the daemon's serve(): project the last day, build the
// index when the space is wide enough, assemble the API server.
func (r *replica) serveGeneration(g *generation, version string, id int64) error {
	rec := r.rec
	rec.do("core.evalspace", id, func() { g.space, _ = g.emb.EvalSpace(g.tr.LastDays(1), nil) })
	rec.set("core.evalspace_rows", float64(g.space.Len()))
	if g.space.Len() >= r.w.annMin {
		var err error
		rec.do("embed.build_ivf", id, func() { _, err = g.space.BuildIVF(embed.IVFOptions{Seed: daemonSeed}) })
		if err != nil {
			return err
		}
	}
	rec.do("apiserver.new", id, func() {
		g.srv = apiserver.New(apiserver.Config{
			Space: g.space, GT: g.gt, Trace: g.tr, KPrime: r.cfg.KPrime, Seed: daemonSeed, ModelVersion: version,
		})
	})
	return nil
}

// identical is the check that keeps the replica honest: the split training
// path must give byte-identical vectors to the real TrainEmbeddingOpts call
// on the same trace, interner and warm seed.
func (r *replica) identical() error {
	g := r.last
	if g.warm == nil {
		return nil
	}
	real, err := core.TrainEmbeddingOpts(g.tr, r.cfg, core.TrainOpts{Interner: r.win.Interner(), Warm: g.warm})
	if err != nil {
		return err
	}
	same := len(real.Model.Syn0) == len(g.emb.Model.Syn0)
	for i := 0; same && i < len(real.Model.Syn0); i++ {
		same = real.Model.Syn0[i] == g.emb.Model.Syn0[i]
	}
	r.res.check(same, "replica training split diverges from core.TrainEmbeddingOpts on the same input")
	return nil
}

// reboot is bootFromStore: open the newest artifact, parse it, rebuild the
// serving bookkeeping from the trace, serve.
func (r *replica) reboot(context.Context) error {
	rec := r.rec
	root := rec.begin("darkvecd.reboot", -1)
	defer rec.end(root)
	var (
		m   *w2v.Model
		err error
	)
	rec.do("w2v.load", -1, func() {
		rc, _, oerr := r.store.OpenLatest()
		if oerr != nil {
			err = oerr
			return
		}
		m, err = w2v.Load(rc)
		rc.Close()
	})
	if err != nil {
		return err
	}
	g := generation{tr: r.last.tr, gt: r.last.gt}
	rec.do("trace.active_filter", -1, func() { g.emb = core.EmbeddingFromModel(m, g.tr, r.cfg) })
	if err := r.serveGeneration(&g, "reboot", -1); err != nil {
		return err
	}
	r.res.check(g.space.Len() == r.last.space.Len(), "reboot serves %d senders, the generation it loaded served %d", g.space.Len(), r.last.space.Len())

	// Save and Load on their own, without the store's fsyncs around them.
	var buf bytes.Buffer
	rec.do("w2v.save", -1, func() { err = r.last.emb.Model.Save(&buf) })
	if err != nil {
		return err
	}
	rec.set("modelstore.bytes", float64(buf.Len()))
	return nil
}

// queries replays the storm's request mix through the handler chain on a
// recorder (no socket), then through each layer under the handlers.
func (r *replica) queries(context.Context) error {
	g, rec := r.last, r.rec
	inside, err := r.ds.knownIn(g.space)
	if err != nil {
		return err
	}
	type request struct {
		path   string
		name   string
		ip     string
		inside bool
	}
	rng := netutil.NewRand(r.seed*1000003 + 11)
	reqs := make([]request, replicaReqs)
	for i := range reqs {
		q := request{inside: rng.Intn(5) != 0}
		q.ip = r.ds.outside[rng.Intn(len(r.ds.outside))]
		if q.inside {
			q.ip = inside[rng.Intn(len(inside))]
		}
		switch {
		case !q.inside:
			q.name = "apiserver.notfound"
		case i%2 == 1:
			q.name = "apiserver.similar"
		default:
			q.name = "apiserver.classify"
		}
		q.path = "/v1/classify?ip=" + q.ip
		if i%2 == 1 {
			q.path = "/v1/similar?ip=" + q.ip
		}
		reqs[i] = q
	}
	replay := func(rec *recorder) (bad int) {
		for i, q := range reqs {
			req := httptest.NewRequest(http.MethodGet, q.path, nil)
			rw := httptest.NewRecorder()
			s := rec.begin(q.name, int64(i))
			g.srv.ServeHTTP(rw, req)
			rec.end(s)
			if (q.inside && rw.Code != http.StatusOK) || (!q.inside && rw.Code != http.StatusNotFound) {
				bad++
			}
		}
		return bad
	}
	// Tracing overhead is measured where spans are densest: the same
	// request list traced and untraced, interleaved so a drifting machine
	// speed hits both sides alike.
	var traced, untraced []float64
	bad := replay(nil) // warm-up, untimed
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		bad += replay(rec)
		traced = append(traced, time.Since(t0).Seconds())
		t0 = time.Now()
		bad += replay(nil)
		untraced = append(untraced, time.Since(t0).Seconds())
	}
	r.res.op(7*len(reqs), bad)
	rec.set("darkvecd.trace_overhead_ratio", median(traced)/median(untraced))

	// The layers under the handlers, on the same addresses.
	lbl := g.labels()
	labeled := make([]int, 0, len(lbl))
	for i, w := range g.space.Words {
		if _, ok := lbl[w]; ok {
			labeled = append(labeled, i)
		}
	}
	// The index is measured on every workload; where the daemon would serve
	// exact, it is built over a private copy of the space so the served one
	// stays exact.
	probe := g.space
	if probe.ANN() == nil {
		keep := make(map[string]bool, len(g.space.Words))
		for _, w := range g.space.Words {
			keep[w] = true
		}
		probe = embed.FromModel(g.emb.Model, keep)
		var err error
		rec.do("embed.build_ivf", -1, func() { _, err = probe.BuildIVF(embed.IVFOptions{Seed: daemonSeed}) })
		if err != nil {
			return err
		}
	}
	ix := probe.ANN()
	st := ix.Stats()
	rec.set("embed.ivf_cells", float64(st.Cells))
	rec.set("embed.ivf_nprobe", float64(st.NProbe))
	rec.set("embed.ivf_recall", st.CalibratedRecall)
	fallbacks := 0
	for i, q := range reqs {
		if !q.inside || i >= 2000 {
			continue
		}
		id := int64(i)
		rec.do("knn.classify_one", id, func() { knn.ClassifyOneIndexed(g.space, g.space.ANN(), lbl, q.ip, r.cfg.K) })
		rec.do("embed.most_similar", id, func() { g.space.MostSimilarApprox(q.ip, recallK) })
		row, _ := probe.Index(q.ip)
		rec.do("embed.knn_ann", id, func() { ix.KNN(row, recallK) })
		rec.do("embed.knn_exact", id, func() { probe.KNN(row, recallK) })
		if g.space.ANN() != nil {
			srow, _ := g.space.Index(q.ip)
			g.space.ANN().KNNSubsetEach([]int{srow}, labeled, r.cfg.K, func(_ int, nn []embed.Neighbor) {
				if len(nn) == 0 {
					fallbacks++
				}
			})
		}
	}
	rec.set("knn.exact_fallbacks", float64(fallbacks))
	return nil
}

// serialVsParallel times fn at GOMAXPROCS 1 and at the process default and
// returns the parallel time and the speed-up (serial ÷ parallel): the
// answer to "is the parallel path paying for itself on this many cores".
func serialVsParallel(fn func()) (parallel time.Duration, speedup float64) {
	fn() // warm caches and pools, so the side timed first pays no extra
	procs := runtime.GOMAXPROCS(1)
	t0 := time.Now()
	fn()
	serial := time.Since(t0)
	runtime.GOMAXPROCS(procs)
	t0 = time.Now()
	fn()
	parallel = time.Since(t0)
	return parallel, serial.Seconds() / parallel.Seconds()
}

// layers times the batch-shaped calls (whole-space passes) on the last
// generation's space, each serial and parallel.
func (r *replica) layers(context.Context) error {
	g, rec := r.last, r.rec
	cl := core.Cluster(g.space, r.cfg.KPrime, daemonSeed)
	var (
		sil []float64
		err error
	)
	par, speed := serialVsParallel(func() { sil, err = cluster.Silhouette(g.space, cl.Assign) })
	if err != nil {
		return err
	}
	rec.set("cluster.silhouette_s", par.Seconds())
	rec.set("cluster.silhouette_speedup", speed)

	lbl := g.labels()
	rec.do("cluster.inspect", -1, func() { cluster.Inspect(g.tr, g.space.Words, cl.Assign, sil, lbl, labels.Unknown) })

	par, speed = serialVsParallel(func() { knn.Classify(g.space, lbl, r.cfg.K) })
	rec.set("knn.classify_loo_s", par.Seconds())
	rec.set("knn.classify_loo_speedup", speed)

	par, speed = serialVsParallel(func() { g.space.AllKNN(r.cfg.KPrime) })
	rec.set("embed.allknn_rows_per_s", float64(g.space.Len())/par.Seconds())
	rec.set("embed.allknn_speedup", speed)

	filtered := g.tr.FilterSenders(g.emb.Active)
	def, err := r.cfg.Definition(filtered)
	if err != nil {
		return err
	}
	// A private interner per build: the shared one must not be touched by a
	// measurement, and both sides pay the same interning cost.
	build := func(workers int) time.Duration {
		t0 := time.Now()
		corpus.BuildOpts(filtered, def, r.cfg.DeltaT, corpus.Options{Workers: workers, Interner: corpus.NewInterner()})
		return time.Since(t0)
	}
	// Workers 0 would pick the serial path by itself below 2^18 events, so
	// the parallel side asks for GOMAXPROCS workers explicitly.
	build(1)
	rec.set("corpus.build_speedup", build(1).Seconds()/build(runtime.GOMAXPROCS(0)).Seconds())
	return nil
}

// ingest times the live path's layers on the firehose bytes: the line
// parser, WAL append + group commit per 256-event batch, window insertion
// under its cap, then the composed stream pipeline, then replay.
func (r *replica) ingest(context.Context) error {
	rec := r.rec
	lines := bytes.Split(bytes.TrimRight(r.ds.hose, "\n"), []byte{'\n'})
	events := make([]trace.Event, 0, len(lines))
	var perr error
	rec.do("trace.parse_lines", -1, func() {
		for _, l := range lines {
			e, err := trace.ParseCSVLine(string(l))
			if err != nil {
				perr = err
				return
			}
			events = append(events, e)
		}
	})
	if perr != nil {
		return perr
	}
	rec.set("trace.parse_line_ns", r.rec.seconds("trace.parse_lines")[0]*1e9/float64(len(lines)))

	sample := events
	if len(sample) > ingestSample {
		sample = sample[:ingestSample]
	}
	walDir := filepath.Join(r.dir, "wal-layer")
	log, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	win := stream.NewWindow(stream.WindowConfig{MaxEvents: len(sample) / 2, MaxAge: -1})
	var addTime time.Duration
	const batch = 256 // the ingest consumer's group-commit unit
	for lo := 0; lo < len(sample); lo += batch {
		hi := min(lo+batch, len(sample))
		s := rec.begin("wal.append_commit", int64(lo/batch))
		for _, e := range sample[lo:hi] {
			if err == nil {
				err = log.Append(e)
			}
		}
		if err == nil {
			err = log.Commit()
		}
		rec.end(s)
		if err != nil {
			log.Close()
			return err
		}
		t0 := time.Now()
		win.AddBatch(sample[lo:hi])
		addTime += time.Since(t0)
	}
	ws := log.Stats()
	rec.set("wal.fsyncs", float64(ws.Syncs))
	rec.set("wal.bytes", float64(ws.Bytes))
	rec.set("stream.window_add_eps", float64(len(sample))/addTime.Seconds())
	if err := log.Close(); err != nil {
		return err
	}
	if log, err = wal.Open(walDir, wal.Options{Policy: wal.SyncAlways}); err != nil {
		return err
	}
	replayed := 0
	rec.do("wal.replay", -1, func() {
		err = log.Replay(func(trace.Event) error { replayed++; return nil })
	})
	log.Close()
	if err != nil {
		return err
	}
	r.res.op(len(sample), max(len(sample)-replayed, replayed-len(sample)))
	r.res.check(replayed == len(sample), "wal replayed %d of %d committed events", replayed, len(sample))
	rec.set("wal.replay_eps", float64(replayed)/r.rec.seconds("wal.replay")[0])

	// The composed pipeline as handleConn runs it: reader → bounded queue →
	// consumer → WAL → window, unpaced.
	log2, err := wal.Open(filepath.Join(r.dir, "wal-stream"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	ing := stream.New(stream.Config{
		Window: stream.WindowConfig{MaxEvents: r.ds.seed.Len(), MaxAge: int64((192 * time.Hour).Seconds())},
		Log:    log2,
	})
	t0 := time.Now()
	cerr := ing.Consume(bytes.NewReader(r.ds.hose), "firehose")
	ing.Close()
	took := time.Since(t0)
	if err := log2.Close(); err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	st := ing.Stats()
	r.res.check(st.Parse.Read == st.Accepted+st.DroppedNewest+st.DroppedOldest,
		"stream: parse.read %d != accepted %d + dropped %d+%d", st.Parse.Read, st.Accepted, st.DroppedNewest, st.DroppedOldest)
	rec.set("stream.consume_eps", float64(st.Accepted)/took.Seconds())
	rec.set("stream.shed_ratio", float64(st.DroppedNewest+st.DroppedOldest)/float64(st.Parse.Read))
	return nil
}

// summarise turns spans and counts into the per-layer metrics: a time is
// the median of its span over the run, a count is exact.
func (r *replica) summarise() {
	rec, m := r.rec, r.res.Metrics
	med := func(span string, scale float64) float64 { return median(rec.seconds(span)) * scale }
	for name, span := range map[string]string{
		"trace.read_file_s":     "trace.read_file",
		"trace.active_filter_s": "trace.active_filter",
		"stream.snapshot_s":     "stream.snapshot",
		"wal.replay_s":          "wal.replay",
		"labels.build_s":        "labels.build",
		"corpus.build_s":        "corpus.build",
		"w2v.train_s":           "w2v.train",
		"w2v.train_cold_s":      "w2v.train_cold",
		"w2v.save_s":            "w2v.save",
		"w2v.load_s":            "w2v.load",
		"core.train_glue_s":     "core.train_glue",
		"core.evalspace_s":      "core.evalspace",
		"graphx.knngraph_s":     "graphx.knngraph",
		"louvain.run_s":         "louvain.run",
		"cluster.inspect_s":     "cluster.inspect",
		"drift.capture_s":       "drift.capture",
		"drift.compare_s":       "drift.compare",
		"modelstore.publish_s":  "modelstore.publish",
		"modelstore.verify_s":   "modelstore.verify",
		"embed.build_ivf_s":     "embed.build_ivf",
		"apiserver.new_s":       "apiserver.new",
		"darkvecd.generation_s": "darkvecd.generation",
	} {
		m[name] = med(span, 1)
	}
	for name, span := range map[string]string{
		"wal.append_commit_us":  "wal.append_commit",
		"embed.knn_ann_us":      "embed.knn_ann",
		"embed.knn_exact_us":    "embed.knn_exact",
		"embed.most_similar_us": "embed.most_similar",
		"knn.classify_one_us":   "knn.classify_one",
		"apiserver.classify_us": "apiserver.classify",
		"apiserver.similar_us":  "apiserver.similar",
		"apiserver.notfound_us": "apiserver.notfound",
	} {
		m[name] = med(span, 1e6)
	}
	for name, v := range rec.counts {
		if declared(perLayer, name) {
			m[name] = v
		}
	}
	if t := m["w2v.train_s"]; t > 0 {
		m["w2v.pairs_per_s"] = m["w2v.pairs"] / t
	}
	// The warm cycles are what the daemon repeats; the cold boot cycle is
	// reported through w2v.train_cold_s and left out of the composed figure.
	warm := rec.seconds("darkvecd.generation")
	if len(warm) > 1 {
		m["darkvecd.generation_s"] = median(warm[1:])
	}
	m["darkvecd.span_sum_ratio"] = rec.spanSumRatio("darkvecd.generation")
	r.res.check(m["darkvecd.span_sum_ratio"] >= 0.95, "layer spans cover only %.3f of the generation", m["darkvecd.span_sum_ratio"])
	r.res.Detail["generations"] = float64(r.gens)
	r.res.Detail["spans"] = float64(len(rec.spans))
}
