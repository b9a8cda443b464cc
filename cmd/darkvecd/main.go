// Command darkvecd trains a DarkVec model on a trace and serves it over
// HTTP: nearest-neighbour pivots, on-demand classification, cluster
// summaries and dataset statistics for SOC tooling.
//
// Usage:
//
//	darkvecd -in trace.csv -feeds feeds/ -listen 127.0.0.1:8080
//
// The daemon is built for unattended operation. The listener is bound
// before training starts, so liveness probes answer immediately while the
// readiness probe flips only once the model is servable. Dirty inputs can
// be tolerated with -maxerr (skip-and-count under an error budget; the
// ingest report is printed once, when -in seeds the window). SIGINT/SIGTERM
// trigger a graceful shutdown: a static daemon's first training run is
// cancelled (the next boot trains again, or boots from the store) or
// in-flight requests are drained before exit. Every request runs behind panic
// recovery, a per-request timeout (-timeout) and an in-flight concurrency
// cap (-maxinflight).
//
// Every daemon trains on its window: -in seeds it once at boot, and a live
// source (-ingest / -follow) keeps it rolling; without one it holds exactly
// the file. Every generation, the first included, comes out of one cycle:
// window cut (the trainable senders' events, one copy) → train (warm
// under -warm when a generation is in memory, cold otherwise) → eval space
// → view (labels, clusters, silhouette: taken once, read by the gate, the
// baseline and the API server) → drift gate (once a baseline exists) →
// publish → swap → baseline. On an empty store a static daemon runs it
// once before anything else; with -retrain, a background supervisor runs
// it periodically off the serving path — at once when nothing is serving
// yet, as in a live daemon off an empty store — and rolls each new model
// in atomically, with zero dropped requests. What a failed cycle costs
// depends only on whether a generation is serving:
//
//	fails at      nothing serving                  a generation serving
//	train         no live source: exit with the    it keeps serving, degraded;
//	              error; live: not ready, retried  retried
//	drift gate    (no baseline, nothing to judge)  same, and drift_rejected
//	publish       in-memory model serves           it keeps serving, degraded;
//	              unversioned, degraded; retried   retried
//
// Degraded: responses carry X-DarkVec-Model-Stale: true and /healthz/ready
// reports stale_model with last_error. Retried: exponential backoff, and
// after -retrainfail consecutive failures a circuit breaker stops the
// churn.
//
// With -store, trained models are published into a versioned, checksummed
// model store: on boot the daemon serves the newest intact generation
// without retraining (corrupt artifacts are quarantined and the next older
// one is used), so a kill -9 at any instant costs only the training that
// was in flight. A publish is verified by loading the artifact back before
// anything is swapped. Every response from a store-managed daemon carries
// X-DarkVec-Model-Version.
//
// The model store and the write-ahead log (-wal, which rebuilds the live
// window on boot) are the only state a restart reads.
//
// Endpoints (README.md documents each): GET /healthz/live, /healthz/ready
// (503 until a model serves), and under /v1/: stats, similar?ip=&k=,
// classify?ip=&k=, clusters?min=, sender?ip=, model, ingest, drift and
// intern. At scale, similar and classify ride an IVF index (-annmin).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	rpprof "runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/drift"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/federation"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/modelstore"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/stream"
	"github.com/darkvec/darkvec/internal/trace"
	"github.com/darkvec/darkvec/internal/w2v"
	"github.com/darkvec/darkvec/internal/wal"
)

// options carries every knob of a daemon run, one embedded group per
// subsystem, each registered and validated beside the code that reads it;
// main fills it from flags, tests construct it directly.
type options struct {
	trainFlags
	httpFlags   // http.go
	storeFlags  // model store and the retrain supervisor
	annFlags    // approximate k-NN serving
	ingestFlags // ingest.go: the window, its -in seed and live sources
	walFlags    // ingest.go: the write-ahead log under live ingestion
	driftFlags  // drift.go
	testHooks
}

// subsystem is one group of flags: it registers them, and validate rejects
// nonsense and parses each string flag, once, into the value its code reads.
type subsystem interface {
	register(fs *flag.FlagSet)
	validate() error
}

func (o *options) subsystems() []subsystem {
	return []subsystem{&o.trainFlags, &o.httpFlags, &o.storeFlags, &o.annFlags, &o.ingestFlags, &o.walFlags, &o.driftFlags}
}

// register declares every daemon flag on fs, bound to o's fields.
func (o *options) register(fs *flag.FlagSet) {
	for _, s := range o.subsystems() {
		s.register(fs)
	}
}

// validate rejects nonsensical flags before any expensive work, so a typo
// fails in milliseconds rather than after reading -in or a long training
// run: each subsystem checks its own, then the rules that span two.
func (o *options) validate() error {
	for _, s := range o.subsystems() {
		if err := s.validate(); err != nil {
			return err
		}
	}
	switch {
	case o.warm && o.retrain <= 0:
		return errors.New("-warm requires -retrain > 0: warm seeding applies to background retrains")
	case o.live() && o.retrain <= 0:
		return errors.New("live ingestion (-ingest / -follow) requires -retrain > 0: the window is useless if nothing retrains on it")
	case o.wal != "" && !o.live():
		return errors.New("-wal logs accepted live events; it requires a live source (-ingest / -follow)")
	case o.budgets.Enabled() && o.retrain <= 0:
		return errors.New("drift budgets require -retrain > 0: the gate judges retrained candidates")
	}
	return nil
}

// testHooks let tests observe and inject faults; all nil in production.
type testHooks struct {
	logf           func(format string, args ...any)                         // nil: stdout
	onListen       func(addr string)                                        // listener bound
	onReady        func(addr string)                                        // model serving
	onIngestListen func(addr string)                                        // ingest listener bound
	onPprofListen  func(addr string)                                        // pprof listener bound
	onRetrain      func(error)                                              // outcome of each retrain cycle
	retrainBackoff robust.Backoff                                           // deterministic backoff
	retrainSleep   func(context.Context, time.Duration) error               // no wall-clock sleeps
	trainWrap      func(io.Writer) io.Writer                                // fault injection on publish
	warmSeedHook   func(*w2v.WarmSeed)                                      // mutate (corrupt) the warm seed before training
	onCut          func(trace.Cut)                                          // the window cut a generation is made from
	walWrap        func(wal.SyncWriter) wal.SyncWriter                      // fault injection on WAL segments
	annBuild       func(*embed.Space, embed.IVFOptions) (*embed.IVF, error) // fault injection on index builds
}

// trainFlags are the feeds and the training parameters of every generation.
type trainFlags struct {
	feedsDir                              string
	dim, window, epochs, kPrime, evalDays int
	seed                                  uint64
}

func (o *trainFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.feedsDir, "feeds", "", "directory of <class>.txt IP feeds")
	fs.IntVar(&o.dim, "dim", 50, "embedding dimension V")
	fs.IntVar(&o.window, "window", 25, "context window c")
	fs.IntVar(&o.epochs, "epochs", 10, "training epochs")
	fs.IntVar(&o.kPrime, "kprime", 3, "clustering graph out-degree")
	fs.IntVar(&o.evalDays, "evaldays", 1, "serve the senders of the final N days")
	fs.Uint64Var(&o.seed, "seed", 1, "training seed")
}

func (o *trainFlags) validate() error {
	for _, p := range []struct {
		name string
		v    int
	}{{"-dim", o.dim}, {"-window", o.window}, {"-epochs", o.epochs}, {"-kprime", o.kPrime}, {"-evaldays", o.evalDays}} {
		if p.v <= 0 {
			return fmt.Errorf("invalid %s %d: must be > 0", p.name, p.v)
		}
	}
	return nil
}

// config is the core configuration every generation trains and looks with.
func (o *trainFlags) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.KPrime, cfg.W2V.Dim, cfg.W2V.Window, cfg.W2V.Epochs, cfg.W2V.Seed = o.kPrime, o.dim, o.window, o.epochs, o.seed
	return cfg
}

// storeFlags configure the model store and the background retrain
// supervisor that publishes into it.
type storeFlags struct {
	store       string        // "" = unmanaged
	retrain     time.Duration // 0 = never
	warm        bool
	keep        int
	retrainFail int
}

func (o *storeFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.store, "store", "", "model store directory (versioned, checksummed artifacts)")
	fs.DurationVar(&o.retrain, "retrain", 0, "background retrain interval (0 = never)")
	fs.BoolVar(&o.warm, "warm", false, "warm-start retrains: seed from the previous generation's vectors and train only the window delta (falls back to cold on any mismatch)")
	fs.IntVar(&o.keep, "keep", 3, "model store generations kept after each publish")
	fs.IntVar(&o.retrainFail, "retrainfail", 5, "consecutive retrain failures before the circuit breaker gives up")
}

func (o *storeFlags) validate() error {
	switch {
	case o.retrain < 0:
		return fmt.Errorf("invalid -retrain %s: must be >= 0", o.retrain)
	case o.keep < 0:
		return fmt.Errorf("invalid -keep %d: must be >= 0", o.keep)
	case o.retrainFail < 0:
		return fmt.Errorf("invalid -retrainfail %d: must be >= 0", o.retrainFail)
	}
	return nil
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "darkvecd:", err)
		if errors.Is(err, errNoSource) {
			os.Exit(2) // a usage error, like the flag parser's
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if o.logf == nil {
		o.logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	if err := o.validate(); err != nil {
		return err
	}
	stopPprof, err := o.startPprof()
	if err != nil {
		return err
	}
	defer stopPprof()
	feeds, err := labels.ReadFeedDir(o.feedsDir)
	if err != nil {
		return err
	}

	d := &daemon{o: o, cfg: o.config(), feeds: feeds, gate: robust.NewGate(), epoch: federation.NewEpoch()}
	if o.store != "" {
		if d.st, err = modelstore.Open(o.store, modelstore.Options{Keep: o.keep, Logf: o.logf}); err != nil {
			return err
		}
	}
	d.initDrift()

	// Build the window (the -in seed, then the WAL) before the listener
	// binds, so /v1/ingest never shows a half-replayed window.
	if err := d.startIngest(); err != nil {
		return err
	}
	defer d.closeIngest() // after the HTTP drain: /v1/ingest answers to the last

	srv, serveErr, err := d.serveAPI()
	if err != nil {
		return err
	}
	if err := d.boot(ctx); err != nil {
		srv.Close()
		<-serveErr
		if errors.Is(err, context.Canceled) {
			// Interrupted by SIGINT/SIGTERM: a graceful exit. Nothing is
			// left behind; the next boot trains again.
			o.logf("training interrupted")
			return nil
		}
		return err
	}
	retrainDone := make(chan struct{})
	go func() {
		defer close(retrainDone)
		if o.retrain > 0 {
			d.retrainLoop(ctx)
		}
	}()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		o.logf("shutting down (draining up to %s)...", o.drain)
		sctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		<-serveErr // http.ErrServerClosed
		// Join the retrain supervisor: an in-flight cycle aborts on the
		// canceled context, and nothing may touch the store or window after
		// run returns.
		<-retrainDone
		return nil
	}
}

// modelStatus is the serving model's health, shared between the HTTP
// handlers and the retrain supervisor. version is the store generation
// (0 = unmanaged), stale flips when the last retrain cycle failed and the
// daemon is deliberately serving an older model.
type modelStatus struct {
	version     atomic.Uint64
	stale       atomic.Bool
	driftReject atomic.Bool  // stale specifically because the drift gate refused a candidate
	lastErr     atomic.Value // string
	annErr      atomic.Value // string: why this generation serves exact despite ANN being requested
}

// daemon carries the pieces of a running darkvecd that outlive a single
// model generation: the readiness gate handlers swap through, the model
// store, and the serving status.
type daemon struct {
	o      options
	cfg    core.Config
	feeds  map[string][]netutil.IPv4
	gate   *robust.Gate
	st     *modelstore.Store // nil when unmanaged
	ing    *stream.Ingestor  // the window every generation trains on
	walLog *wal.Log          // nil when ingestion is not WAL-backed
	status modelStatus

	// Boot replay accounting, fixed before the listener binds: how much of
	// the window was rebuilt from the WAL and how many records were framed
	// intact but undecodable (charged to the shared quarantine budget).
	walReplayed    int64
	walQuarantined int64
	drift          driftState
	epoch          string // intern-export process-instance id (see federation.InternPage)

	// prev is the serving model: the warm-seed source for the next cycle
	// (with its Perm when trained in-process), nil before the first swap.
	// Generations are produced one at a time — boot, then the retrain loop
	// — and nothing else touches it, so it needs no lock.
	prev *w2v.Model

	readyOnce sync.Once
	readyFn   func() // announced on the first model swap
}

// boot brings up the first generation, from the store when it holds one.
// On an empty store a daemon with no live source runs its first cycle here:
// with nothing serving and nothing that could change the window, a failure
// is final. A live daemon leaves it to the retrain loop, which retries as
// the window fills, and so is a failed cycle that left a generation serving.
func (d *daemon) boot(ctx context.Context) error {
	if d.bootFromStore() || d.o.live() {
		return nil
	}
	if err := d.cycle(ctx); err != nil && !d.gate.Ready() {
		return err
	}
	return nil
}

// bootFromStore serves the newest intact generation without retraining —
// the crash-recovery path. Artifacts whose outer frame is intact but whose
// payload fails model parsing are quarantined and the next older
// generation is tried; an empty store reports false and the first cycle
// trains.
func (d *daemon) bootFromStore() bool {
	if d.st == nil {
		return false
	}
	for {
		rc, v, err := d.st.OpenLatest()
		if err != nil {
			if !errors.Is(err, modelstore.ErrEmpty) {
				d.o.logf("store: %v", err)
			}
			return false
		}
		m, lerr := w2v.Load(rc)
		rc.Close()
		if lerr != nil {
			d.o.logf("store: %s is framed correctly but does not parse: %v", v, lerr)
			d.st.Quarantine(v, lerr)
			continue
		}
		d.o.logf("booted from store generation %s; skipping initial training", v)
		c := d.cut()
		// Intern the model's IP-shaped vocabulary, so the exported id space
		// covers the generation actually serving, not just senders seen
		// since boot. Synthetic tokens (the pad word, service markers) are
		// skipped: the export is a sender table. Ids differ from the previous
		// process's anyway; the fresh epoch forces mirrors to re-sync.
		in := d.ing.Window().Interner()
		for _, w := range m.Words() {
			if ip, err := netutil.ParseIPv4(w); err == nil {
				in.Intern(ip)
			}
		}
		g := core.Look(c, d.o.evalDays, core.EmbeddingFromModel(m, c.Trainable, d.cfg), labels.Build(c.Trainable, d.feeds), d.cfg)
		// No baseline at boot, so nothing to fail: see gateCheck.
		snap, _ := d.captureGeneration(g)
		d.serve(g, &c.Stats, v, nil)
		d.acceptGeneration(snap, nil, v)
		return true
	}
}

// cut takes a generation's input from the window. The daemon keeps its
// /v1/stats summary and hands the rest to core — which reads what its later
// stages need of the events before it trains, so they are garbage while the
// model trains.
func (d *daemon) cut() trace.Cut {
	c := d.ing.Window().Cut(d.cfg.MinPackets)
	if d.o.onCut != nil {
		d.o.onCut(c)
	}
	return c
}

// publishVerified publishes the model and immediately loads it back from
// the store, so a corruption anywhere on the write path — caught by the
// store's outer checksum or the model's inner one — quarantines the
// artifact and fails the cycle before anything is swapped into serving.
func (d *daemon) publishVerified(emb *core.Embedding) (modelstore.Version, error) {
	v, err := d.st.Publish(func(w io.Writer) error {
		if d.o.trainWrap != nil {
			w = d.o.trainWrap(w)
		}
		return emb.Model.Save(w)
	})
	if err != nil {
		return 0, err
	}
	rc, err := d.st.Open(v)
	if err != nil {
		return 0, fmt.Errorf("published %s failed verification: %w", v, err)
	}
	_, lerr := w2v.Load(rc)
	rc.Close()
	if lerr != nil {
		d.st.Quarantine(v, lerr)
		return 0, fmt.Errorf("published %s failed verification: %w", v, lerr)
	}
	d.o.logf("published model generation %s", v)
	return v, nil
}

// annFlags configure approximate k-NN serving: the IVF cell-probe index
// (internal/embed), always √N cells with the probed cell count calibrated
// to a 0.99 sampled recall. It is rebuilt for every generation inside the
// retrain cycle, before the atomic gate swap; a failed build serves the
// generation exactly (visible on /v1/model and /healthz/ready), never
// refusing traffic.
type annFlags struct {
	annMin int // build the index at >= this many senders (1 = always, 0 = never)
}

func (o *annFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&o.annMin, "annmin", 16384, "build the approximate k-NN index when the space holds at least this many senders (1 = always, 0 = never)")
}

func (o *annFlags) validate() error {
	if o.annMin < 0 {
		return fmt.Errorf("invalid -annmin %d: must be >= 0", o.annMin)
	}
	return nil
}

// annWanted reports whether the approximate index should be built for a
// space of n senders: at -annmin and above, never when -annmin is 0.
func (o *annFlags) annWanted(n int) bool {
	return n >= o.annMin && o.annMin > 0
}

// buildANN builds the IVF index for a freshly evaluated space, before the
// space reaches the gate (indexes are built-before-shared, like the row
// matrix). A failed build is a degradation, never an outage: the space
// serves exact, the failure lands on /v1/model and /healthz/ready, and the
// next retrain cycle tries again on its new space. Returns the degradation
// detail ("" on success or when no index was requested).
func (d *daemon) buildANN(space *embed.Space) string {
	if !d.o.annWanted(space.Len()) {
		return ""
	}
	build := space.BuildIVF
	if d.o.annBuild != nil {
		build = func(o embed.IVFOptions) (*embed.IVF, error) { return d.o.annBuild(space, o) }
	}
	ix, err := build(embed.IVFOptions{Seed: d.o.seed})
	if err != nil {
		d.o.logf("ann index build failed (serving exact): %v", err)
		return err.Error()
	}
	st := ix.Stats()
	d.o.logf("ann index: %d cells, nprobe %d (sampled recall %.3f, target %.2f)",
		st.Cells, st.NProbe, st.CalibratedRecall, st.TargetRecall)
	return ""
}

// serve swaps a generation — trained by a cycle or loaded from the store —
// into the gate. The drift gate judged its view, and the API server serves
// that same view: clustered once. The swap is atomic: in-flight requests
// finish on the generation they started with, new ones land on the fresh
// model, nothing is dropped. stats is the window cut's /v1/stats; how is
// what /v1/model reports about the training run (nil for a generation
// loaded from the store).
func (d *daemon) serve(g *core.Generation, stats *trace.Stats, v modelstore.Version, how *apiserver.RetrainInfo) {
	ver := ""
	if v != 0 {
		ver = v.String()
	}
	var annErr string
	rpprof.Do(context.Background(), rpprof.Labels("darkvec_phase", "index-build"), func(context.Context) {
		annErr = d.buildANN(g.Space)
	})
	d.prev = g.Emb.Model
	d.gate.Set(apiserver.New(apiserver.Config{
		View: g.View, Tally: g.Tally, Stats: stats,
		RequestTimeout: d.o.reqTimeout, MaxInFlight: d.o.maxInFlight,
		Logf: d.o.logf, ModelVersion: ver, ANNError: annErr, Retrain: how,
	}))
	d.status.annErr.Store(annErr)
	d.status.version.Store(uint64(v))
	d.o.logf("serving %d senders (coverage %.0f%%)", g.Space.Len(), g.Coverage*100)
	d.readyOnce.Do(func() {
		if d.readyFn != nil {
			d.readyFn()
		}
	})
}

// cycle is the one way the daemon produces a generation, the first
// included: the pipeline, and what a failure costs, are in the package
// comment. A returned error reaches the retrain supervisor's backoff and
// breaker, or ends a daemon with no live source that has nothing to serve.
func (d *daemon) cycle(ctx context.Context) error {
	fail := func(err error) error {
		d.status.stale.Store(true)
		d.status.lastErr.Store(err.Error())
		return err
	}
	c := d.cut()
	stats := c.Stats // served after training, when nothing may hold the cut
	if d.o.live() && stats.Packets < d.o.ingestMin {
		// A thin live window is a fact about the darknet, not a failure
		// (a static one is the whole file): skip the cycle without burning
		// the breaker or flagging degraded, and try again next tick.
		d.o.logf("retrain: window holds %d trainable events (< -ingestmin %d); skipping cycle", stats.Packets, d.o.ingestMin)
		return nil
	}

	// Warm start: seed from the serving generation when -warm asked for
	// it. A seed the trainer refuses (id-space mismatch, dimension change,
	// corrupt matrices) forfeits only the speedup: Generate retries cold
	// and the fallback reason rides the decision log and /v1/model.
	topts := core.TrainOpts{Context: ctx, Interner: d.ing.Window().Interner()}
	if d.o.warm && d.prev != nil {
		topts.Warm = &w2v.WarmSeed{Prev: d.prev, PrevPerm: d.prev.Perm}
		if d.o.warmSeedHook != nil {
			d.o.warmSeedHook(topts.Warm)
		}
	}
	d.o.logf("training on %d events (%d days)...", stats.Packets, c.Days())
	g, err := core.Generate(c, d.o.evalDays, labels.Build(c.Trainable, d.feeds), d.cfg, topts)
	if err != nil {
		return fail(fmt.Errorf("train: %w", err))
	}
	if g.WarmFallback != "" {
		d.o.logf("retrain: fell back to a cold train: %s", g.WarmFallback)
	}
	trainDur := g.Emb.TrainTime
	mode := "cold"
	if ws := g.Emb.Model.Warm; ws != nil {
		mode = "warm"
		d.o.logf("retrain: warm start seeded %d rows (%d fresh, %d retired), delta %.1f%% -> %d/%d epochs in %s",
			ws.Seeded, ws.Fresh, ws.Retired, ws.DeltaFrac*100, ws.Epochs, d.o.epochs, trainDur.Round(time.Millisecond))
	} else {
		d.o.logf("trained in %s", trainDur.Round(time.Millisecond))
	}

	// The quality gate runs before publish: a drifted candidate is never
	// persisted, never swapped in, and fails the cycle exactly like a
	// corrupt artifact — same degraded markers, same backoff, same breaker.
	// Without a baseline there is nothing to judge against: the snapshot
	// comes back without a report and becomes the baseline after the swap.
	var snap *drift.Snapshot
	var rep *drift.Report
	var reasons []string
	rpprof.Do(ctx, rpprof.Labels("darkvec_phase", "drift-check"), func(context.Context) {
		snap, rep, reasons, err = d.gateCheck(g)
	})
	if err != nil {
		return fail(err)
	}
	if len(reasons) > 0 {
		return fail(d.rejectCandidate(snap, rep, reasons))
	}

	var v modelstore.Version
	var pubErr error
	if d.st != nil {
		rpprof.Do(ctx, rpprof.Labels("darkvec_phase", "publish"), func(context.Context) {
			v, pubErr = d.publishVerified(g.Emb)
		})
		if pubErr != nil {
			if d.gate.Ready() {
				return fail(pubErr)
			}
			// The in-memory model is fine; only its persistence failed.
			// Serving it beats serving nothing. The daemon is marked
			// degraded before the swap, so the first answer already says
			// so, and stays degraded until a publish succeeds.
			d.o.logf("publish failed with nothing serving (serving the in-memory model, unversioned): %v", pubErr)
			fail(pubErr)
		}
	}
	d.serve(g, &stats, v, &apiserver.RetrainInfo{
		Mode: mode, DurationSecs: trainDur.Seconds(), Epochs: g.Emb.Epochs, WarmFallback: g.WarmFallback,
	})
	var extra []string
	if g.WarmFallback != "" {
		extra = append(extra, "warm_fallback: "+g.WarmFallback)
	}
	d.acceptGeneration(snap, rep, v, extra...)
	if pubErr != nil {
		return pubErr
	}
	d.status.stale.Store(false)
	d.status.driftReject.Store(false)
	d.status.lastErr.Store("")
	return nil
}

// retrainLoop runs cycle periodically under a supervisor: failures retry
// with exponential backoff, and -retrainfail consecutive failures trip the
// circuit breaker — the daemon then stops churning and serves its
// last-good model until restarted. With nothing serving (a live daemon off
// an empty store) the first cycle runs at once instead of waiting a tick.
func (d *daemon) retrainLoop(ctx context.Context) {
	sup := &robust.Supervisor{
		Backoff: d.o.retrainBackoff,
		Breaker: &robust.Breaker{Threshold: d.o.retrainFail},
		Sleep:   d.o.retrainSleep,
		Logf:    d.o.logf,
	}
	ticker := time.NewTicker(d.o.retrain)
	defer ticker.Stop()
	gaveUp := false
	for wait := d.gate.Ready(); ; wait = true {
		if wait {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
		}
		err := sup.Run(ctx, "retrain", d.cycle)
		switch {
		case err == nil:
			gaveUp = false
		case errors.Is(err, robust.ErrGiveUp):
			if !gaveUp {
				d.o.logf("retrain: %v; serving last-good model until restart", err)
				gaveUp = true
			}
		case errors.Is(err, context.Canceled):
		default:
			d.o.logf("retrain: %v", err)
		}
		if d.o.onRetrain != nil {
			d.o.onRetrain(err)
		}
	}
}
