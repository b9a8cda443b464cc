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
// Endpoints:
//
//	GET /healthz/live   — process is up (200 even while training)
//	GET /healthz/ready  — model trained and serving (503 until then;
//	                      "degraded" + last_error when retraining fails)
//	GET /v1/stats
//	GET /v1/similar?ip=1.2.3.4&k=10
//	GET /v1/classify?ip=1.2.3.4&k=7
//	GET /v1/clusters?min=3
//	GET /v1/sender?ip=1.2.3.4
//	GET /v1/model      — serving generation, space size, exact-vs-IVF mode
//
// At scale, similarity and classification queries can ride an IVF
// cell-probe index instead of the exact scan: it is built when the space
// reaches -annmin senders (1 = always, 0 = never: exact search only). The
// index is rebuilt for every generation inside the retrain cycle before
// the atomic swap, always √N cells with the probed cell count calibrated to
// a 0.99 sampled recall. A failed index build serves the generation exactly
// instead (degradation visible on /v1/model and /healthz/ready), never
// refusing traffic.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	rpprof "runtime/pprof"
	"sort"
	"strconv"
	"strings"
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

// options carries every knob of a daemon run; main fills it from flags,
// tests construct it directly.
type options struct {
	in          string
	feedsDir    string
	listen      string
	dim         int
	window      int
	epochs      int
	kPrime      int
	evalDays    int
	seed        uint64
	maxErr      int64
	pprofAddr   string // loopback-only pprof listener ("" = off)
	reqTimeout  time.Duration
	maxInFlight int
	drain       time.Duration
	store       string        // model store directory ("" = unmanaged)
	retrain     time.Duration // background retrain interval (0 = never)
	warm        bool          // warm-start retrains from the previous generation
	keep        int           // store generations kept after publish
	retrainFail int           // breaker threshold for consecutive retrain failures
	vantage     string        // vantage point name ("" = single-vantage)

	// Approximate k-NN serving (the IVF cell-probe index, internal/embed).
	// The index is rebuilt for every generation inside the retrain cycle,
	// before the atomic gate swap; a failed build degrades to exact search,
	// it never blocks serving.
	annMin int // build the index at >= this many senders (1 = always, 0 = never)

	// Live ingestion (see ingest.go). Either source keeps the window -in
	// seeded rolling; without one the window is exactly the file.
	ingest        string        // live-feed listener: host:port or unix:/path ("" = off)
	follow        string        // tail-follow this file as a live source ("" = off)
	ingestRate    float64       // per-source admission rate, events/sec (0 = unlimited)
	ingestIdle    time.Duration // per-connection read deadline
	ingestStall   time.Duration // silence before the feed counts as stalled
	ingestCap     int           // window hard cap, events
	ingestAge     time.Duration // window event-time horizon
	ingestQueue   int           // bounded hand-off queue capacity
	ingestPolicy  string        // shed-newest | drop-oldest
	ingestMin     int           // window events required before a retrain cycle runs
	ingestMinPkts int           // senders need >= P buffered packets to enter a retrain

	// Durable ingestion (see ingest.go): every event the queue accepts is
	// appended to a crash-consistent write-ahead log before it enters the
	// window, and boot replays the log to rebuild the window.
	wal      string // WAL directory ("" = the live window does not survive a restart)
	walFsync string // fsync policy: always | interval | off
	walSeg   int64  // segment rotation size, bytes (0 = default 64 MiB)

	// Drift quality gate (see drift.go). Any non-zero budget arms the
	// gate: a retrained candidate violating a budget is rejected before
	// publish and the previous generation keeps serving.
	driftMax     float64 // composite drift score budget (0 = no check)
	driftChurn   float64 // vocabulary churn budget
	driftOverlap float64 // minimum k-NN neighbourhood overlap
	driftSilDrop float64 // silhouette regression budget
	driftShift   float64 // per-class centroid shift budget
	driftNew     float64 // majority-new cluster fraction budget
	driftK       int     // neighbourhood size for the overlap metric
	driftHist    int     // gate decisions retained (and persisted with -store)

	logf           func(format string, args ...any)                         // nil: stdout
	onListen       func(addr string)                                        // test hook: listener bound
	onReady        func(addr string)                                        // test hook: model serving
	onIngestListen func(addr string)                                        // test hook: ingest listener bound
	onPprofListen  func(addr string)                                        // test hook: pprof listener bound
	onRetrain      func(error)                                              // test hook: outcome of each retrain cycle
	retrainBackoff robust.Backoff                                           // test hook: deterministic backoff
	retrainSleep   func(context.Context, time.Duration) error               // test hook: no wall-clock sleeps
	trainWrap      func(io.Writer) io.Writer                                // test hook: fault injection on publish
	warmSeedHook   func(*w2v.WarmSeed)                                      // test hook: mutate (corrupt) the warm seed before training
	onCut          func(stream.Cut)                                         // test hook: the window cut a generation is made from
	walWrap        func(wal.SyncWriter) wal.SyncWriter                      // test hook: fault injection on WAL segments
	annBuild       func(*embed.Space, embed.IVFOptions) (*embed.IVF, error) // test hook: fault injection on index builds
}

// register declares every daemon flag on fs, bound to o's fields.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.in, "in", "", "input trace (.csv or .pcap)")
	fs.StringVar(&o.feedsDir, "feeds", "", "directory of <class>.txt IP feeds")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8080", "HTTP listen address")
	fs.IntVar(&o.dim, "dim", 50, "embedding dimension V")
	fs.IntVar(&o.window, "window", 25, "context window c")
	fs.IntVar(&o.epochs, "epochs", 10, "training epochs")
	fs.IntVar(&o.kPrime, "kprime", 3, "clustering graph out-degree")
	fs.IntVar(&o.evalDays, "evaldays", 1, "serve the senders of the final N days")
	fs.Uint64Var(&o.seed, "seed", 1, "training seed")
	fs.Int64Var(&o.maxErr, "maxerr", 0, "tolerate up to N malformed input records (0 = strict)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty = off)")
	fs.DurationVar(&o.reqTimeout, "timeout", apiserver.DefaultRequestTimeout, "per-request timeout (0 = none)")
	fs.IntVar(&o.maxInFlight, "maxinflight", apiserver.DefaultMaxInFlight, "max concurrent requests before shedding (0 = unlimited)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	fs.StringVar(&o.store, "store", "", "model store directory (versioned, checksummed artifacts)")
	fs.DurationVar(&o.retrain, "retrain", 0, "background retrain interval (0 = never)")
	fs.BoolVar(&o.warm, "warm", false, "warm-start retrains: seed from the previous generation's vectors and train only the window delta (falls back to cold on any mismatch)")
	fs.IntVar(&o.keep, "keep", 3, "model store generations kept after each publish")
	fs.IntVar(&o.retrainFail, "retrainfail", 5, "consecutive retrain failures before the circuit breaker gives up")
	fs.StringVar(&o.vantage, "vantage", "", "vantage point name: tags untagged live events and the /v1/intern export")
	fs.IntVar(&o.annMin, "annmin", 16384, "build the approximate k-NN index when the space holds at least this many senders (1 = always, 0 = never)")
	fs.StringVar(&o.ingest, "ingest", "", "live-feed listener (host:port or unix:/path) speaking the CSV line protocol")
	fs.StringVar(&o.follow, "follow", "", "tail-follow this file as a live event source")
	fs.Float64Var(&o.ingestRate, "ingestrate", 0, "per-source ingest rate limit, events/sec (0 = unlimited)")
	fs.DurationVar(&o.ingestIdle, "ingestidle", stream.DefaultIdleTimeout, "cut a live connection after this long without a line")
	fs.DurationVar(&o.ingestStall, "ingeststall", stream.DefaultStallAfter, "report degraded after this long without any live event")
	fs.IntVar(&o.ingestCap, "ingestcap", 1<<20, "live window hard cap, events")
	fs.DurationVar(&o.ingestAge, "ingestage", 24*time.Hour, "live window event-time horizon")
	fs.IntVar(&o.ingestQueue, "ingestqueue", stream.DefaultQueueSize, "live ingest queue capacity")
	fs.StringVar(&o.ingestPolicy, "ingestpolicy", "shed-newest", "full-queue drop policy: shed-newest or drop-oldest")
	fs.IntVar(&o.ingestMin, "ingestmin", 100, "window events required before a retrain cycle runs")
	fs.IntVar(&o.ingestMinPkts, "ingestminpkts", 1, "senders need >= P buffered packets to enter a retrain (the paper's active-sender filter)")
	fs.StringVar(&o.wal, "wal", "", "write-ahead log directory: accepted live events are durable before entering the window, and boot replays them")
	fs.StringVar(&o.walFsync, "walfsync", "always", "WAL fsync policy: always (zero loss), interval (bounded loss) or off (OS-decided)")
	fs.Int64Var(&o.walSeg, "walseg", 0, "WAL segment rotation size in bytes (0 = 64 MiB)")
	fs.Float64Var(&o.driftMax, "driftmax", 0, "reject a retrain whose composite drift score exceeds this (0 = off)")
	fs.Float64Var(&o.driftChurn, "driftchurn", 0, "reject a retrain whose vocabulary churn exceeds this (0 = off)")
	fs.Float64Var(&o.driftOverlap, "driftoverlap", 0, "reject a retrain whose k-NN neighbourhood overlap falls below this (0 = off)")
	fs.Float64Var(&o.driftSilDrop, "driftsildrop", 0, "reject a retrain whose mean silhouette drops by more than this (0 = off)")
	fs.Float64Var(&o.driftShift, "driftshift", 0, "reject a retrain with a per-class centroid shift above this (0 = off)")
	fs.Float64Var(&o.driftNew, "driftnew", 0, "reject a retrain where a larger fraction of senders lives in majority-new clusters (0 = off)")
	fs.IntVar(&o.driftK, "driftk", 10, "neighbourhood size for the drift overlap metric")
	fs.IntVar(&o.driftHist, "drifthist", drift.DefaultHistorySize, "drift gate decisions retained (persisted with -store)")
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

var errNoSource = errors.New("missing -in trace (or a live source: -ingest / -follow)")

// validate rejects nonsensical flags before any expensive work: training
// parameters must be positive and the listen address well-formed, so a
// typo fails in milliseconds rather than after a long training run.
func (o *options) validate() error {
	if o.in == "" && !o.live() {
		return errNoSource
	}
	if o.dim <= 0 {
		return fmt.Errorf("invalid -dim %d: must be > 0", o.dim)
	}
	if o.window <= 0 {
		return fmt.Errorf("invalid -window %d: must be > 0", o.window)
	}
	if o.epochs <= 0 {
		return fmt.Errorf("invalid -epochs %d: must be > 0", o.epochs)
	}
	if o.kPrime <= 0 {
		return fmt.Errorf("invalid -kprime %d: must be > 0", o.kPrime)
	}
	if o.evalDays <= 0 {
		return fmt.Errorf("invalid -evaldays %d: must be > 0", o.evalDays)
	}
	if o.maxErr < 0 {
		return fmt.Errorf("invalid -maxerr %d: must be >= 0", o.maxErr)
	}
	if o.pprofAddr != "" {
		host, _, err := net.SplitHostPort(o.pprofAddr)
		if err != nil {
			return fmt.Errorf("invalid -pprof %q: %v", o.pprofAddr, err)
		}
		// Profiles leak memory contents; never expose them off-host.
		ip := net.ParseIP(host)
		if host != "localhost" && (ip == nil || !ip.IsLoopback()) {
			return fmt.Errorf("invalid -pprof %q: host must be a loopback address", o.pprofAddr)
		}
	}
	if o.retrain < 0 {
		return fmt.Errorf("invalid -retrain %s: must be >= 0", o.retrain)
	}
	if o.warm && o.retrain <= 0 {
		return errors.New("-warm requires -retrain > 0: warm seeding applies to background retrains")
	}
	if o.live() {
		if o.retrain <= 0 {
			return errors.New("live ingestion (-ingest / -follow) requires -retrain > 0: the window is useless if nothing retrains on it")
		}
		if _, err := parsePolicy(o.ingestPolicy); err != nil {
			return err
		}
		// Zeroes mean "use the default" so options constructed in code
		// without flag parsing behave like the CLI; only negatives are
		// nonsense (except -ingestage, where negative = unbounded).
		if o.ingestCap < 0 {
			return fmt.Errorf("invalid -ingestcap %d: must be >= 0", o.ingestCap)
		}
		if o.ingestCap > math.MaxInt32 {
			return fmt.Errorf("invalid -ingestcap %d: must be <= %d", o.ingestCap, math.MaxInt32)
		}
		if o.ingestQueue < 0 {
			return fmt.Errorf("invalid -ingestqueue %d: must be >= 0", o.ingestQueue)
		}
		if o.ingestMin < 0 {
			return fmt.Errorf("invalid -ingestmin %d: must be >= 0", o.ingestMin)
		}
		if o.ingestMinPkts < 0 {
			return fmt.Errorf("invalid -ingestminpkts %d: must be >= 0", o.ingestMinPkts)
		}
		if o.ingestRate < 0 {
			return fmt.Errorf("invalid -ingestrate %v: must be >= 0", o.ingestRate)
		}
	}
	if o.wal != "" && !o.live() {
		return errors.New("-wal logs accepted live events; it requires a live source (-ingest / -follow)")
	}
	if o.wal != "" {
		if _, err := wal.ParseSyncPolicy(o.walFsync); err != nil {
			return fmt.Errorf("invalid -walfsync: %w", err)
		}
	}
	if o.walSeg < 0 {
		return fmt.Errorf("invalid -walseg %d: must be >= 0", o.walSeg)
	}
	for _, b := range []struct {
		name string
		v    float64
	}{
		{"-driftmax", o.driftMax}, {"-driftchurn", o.driftChurn},
		{"-driftoverlap", o.driftOverlap}, {"-driftsildrop", o.driftSilDrop},
		{"-driftshift", o.driftShift}, {"-driftnew", o.driftNew},
	} {
		// Every drift metric lives in [0,1]; a budget outside that range is
		// a typo that would silently never (or always) trip.
		if b.v < 0 || b.v > 1 {
			return fmt.Errorf("invalid %s %v: must be in [0,1]", b.name, b.v)
		}
	}
	if o.driftK < 0 {
		return fmt.Errorf("invalid -driftk %d: must be >= 0", o.driftK)
	}
	if o.driftHist < 0 {
		return fmt.Errorf("invalid -drifthist %d: must be >= 0", o.driftHist)
	}
	if o.budgets().Enabled() && o.retrain <= 0 {
		return errors.New("drift budgets require -retrain > 0: the gate judges retrained candidates")
	}
	if o.keep < 0 {
		return fmt.Errorf("invalid -keep %d: must be >= 0", o.keep)
	}
	if o.retrainFail < 0 {
		return fmt.Errorf("invalid -retrainfail %d: must be >= 0", o.retrainFail)
	}
	if o.annMin < 0 {
		return fmt.Errorf("invalid -annmin %d: must be >= 0", o.annMin)
	}
	// The vantage name travels inside CSV lines and "; "-joined headers;
	// separators in it would corrupt both framings.
	if strings.ContainsAny(o.vantage, ",;\r\n") {
		return fmt.Errorf("invalid -vantage %q: must not contain ',', ';' or line breaks", o.vantage)
	}
	host, port, err := net.SplitHostPort(o.listen)
	if err != nil {
		return fmt.Errorf("invalid -listen %q: %v", o.listen, err)
	}
	if p, err := strconv.Atoi(port); err != nil || p < 0 || p > 65535 {
		return fmt.Errorf("invalid -listen %q: bad port %q", o.listen, port)
	}
	if host != "" && host != "localhost" && net.ParseIP(host) == nil {
		return fmt.Errorf("invalid -listen %q: host must be an IP or localhost", o.listen)
	}
	return nil
}

func run(ctx context.Context, o options) error {
	if o.logf == nil {
		o.logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.validate(); err != nil {
		return err
	}

	if o.pprofAddr != "" {
		// A dedicated loopback-only mux: the profiling surface must never
		// share a listener with the public API.
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return err
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = psrv.Serve(pln) }()
		defer psrv.Close()
		o.logf("pprof on http://%s/debug/pprof/", pln.Addr())
		if o.onPprofListen != nil {
			o.onPprofListen(pln.Addr().String())
		}
	}

	feeds, err := labels.ReadFeedDir(o.feedsDir)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.KPrime = o.kPrime
	cfg.W2V.Dim = o.dim
	cfg.W2V.Window = o.window
	cfg.W2V.Epochs = o.epochs
	cfg.W2V.Seed = o.seed

	d := &daemon{o: o, cfg: cfg, feeds: feeds, gate: robust.NewGate(), epoch: federation.NewEpoch()}
	d.status.lastErr.Store("")
	d.status.annErr.Store("")
	if o.store != "" {
		d.st, err = modelstore.Open(o.store, modelstore.Options{Keep: o.keep, Logf: o.logf})
		if err != nil {
			return err
		}
	}
	d.initDrift()

	// Build the window (the -in seed, then the WAL) before the listener
	// binds, so /v1/ingest never shows a half-replayed window.
	if err := d.startIngest(); err != nil {
		return err
	}
	// The shutdown sequence, run after the HTTP drain so /v1/ingest answers
	// to the last. LIFO: the ingestor closes first (draining the queue
	// through the WAL), then the WAL is flushed and closed.
	defer d.closeWAL()
	defer d.ing.Close()

	// Bind before the long training run: liveness probes and fast 503s for
	// not-yet-ready traffic beat a connection-refused black hole.
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz/live", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"live"}`)
	})
	mux.HandleFunc("GET /healthz/ready", d.handleReady)
	// Ungated: ingest accounting must answer while the first model is still
	// training.
	mux.HandleFunc("GET /v1/ingest", d.handleIngest)
	// Ungated for the same reason: the drift trajectory and gate decisions
	// must be inspectable while a candidate is still training.
	mux.HandleFunc("GET /v1/drift", d.handleDrift)
	// Ungated too: the federation aggregator mirrors the sender id space
	// while the first model is still training, and pages stay stable under
	// concurrent retrains because the table is append-only.
	mux.Handle("GET /v1/intern", federation.NewInternHandler(federation.InternSource{
		Vantage: o.vantage,
		Epoch:   d.epoch,
		Table:   d.ing.Window().Interner().Table(),
		Generation: func() string {
			if v := d.status.version.Load(); v != 0 {
				return modelstore.Version(v).String()
			}
			return ""
		},
	}))
	// The staleness marker wraps the gate so a degraded daemon — a failed
	// retrain still serving the previous generation, or a live feed gone
	// silent — is visible on every response, not just the health endpoint.
	mux.Handle("/", apiserver.StaleHeader(d.gate, d.stale))

	writeTimeout := 30 * time.Second
	if o.reqTimeout > 0 {
		// Leave headroom past the per-request timeout so the 503 body from
		// the timeout middleware still reaches the client.
		writeTimeout = o.reqTimeout + 5*time.Second
	}
	httpSrv := &http.Server{
		Handler:           mux,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      writeTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	o.logf("listening on http://%s (training; readiness pending)", ln.Addr())
	if o.onListen != nil {
		o.onListen(ln.Addr().String())
	}

	// The readiness announcement fires exactly once, on the first model
	// swap: a store boot or a static daemon's first cycle just below, or a
	// live daemon's first cycle in the retrain loop.
	d.readyFn = func() {
		o.logf("ready")
		if o.onReady != nil {
			o.onReady(ln.Addr().String())
		}
	}

	// Prefer booting from the store: after a crash (even kill -9 mid-
	// publish) the newest intact generation serves immediately. On an empty
	// store a daemon with no live source runs its first cycle here, because
	// with nothing serving and nothing that could change the window a
	// failure is final; a live daemon leaves it to the retrain loop, whose
	// supervisor retries as the window fills. A cycle that failed but left a
	// generation serving (a first publish that did not verify) has logged
	// why and, with -retrain, is retried there too.
	if !d.bootFromStore() && !o.live() {
		if err := d.cycle(ctx); err != nil && !d.gate.Ready() {
			httpSrv.Close()
			<-serveErr
			if errors.Is(err, context.Canceled) {
				// Interrupted by SIGINT/SIGTERM: a graceful exit. Nothing
				// is left behind; the next boot trains again.
				o.logf("training interrupted")
				return nil
			}
			return err
		}
	}
	var retrainDone chan struct{}
	if o.retrain > 0 {
		retrainDone = make(chan struct{})
		go func() {
			defer close(retrainDone)
			d.retrainLoop(ctx)
		}()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		o.logf("shutting down (draining up to %s)...", o.drain)
		sctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		<-serveErr // http.ErrServerClosed
		if retrainDone != nil {
			// Join the retrain supervisor: an in-flight cycle aborts on the
			// canceled context, and nothing may touch the store or window
			// after run returns.
			<-retrainDone
		}
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

// handleReady reports serving health: 503 while the first model is still
// training, "ready" once serving, "degraded" when the last retrain failed
// and an older generation is deliberately kept on the air.
func (d *daemon) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !d.gate.Ready() {
		robust.Unavailable(w, 5, "not ready: model still training")
		return
	}
	resp := map[string]any{"status": "ready"}
	if v := d.status.version.Load(); v != 0 {
		resp["model_version"] = modelstore.Version(v).String()
	}
	// Degradation causes overlap (a drift-rejected retrain while the feed
	// is silent, say); every active one is listed so an operator sees the
	// full picture, not just whichever cause was checked first.
	var reasons []string
	if d.status.stale.Load() {
		if d.status.driftReject.Load() {
			reasons = append(reasons, "drift_rejected")
		}
		reasons = append(reasons, "stale_model")
		if e, _ := d.status.lastErr.Load().(string); e != "" {
			resp["last_error"] = e
		}
	}
	if e, _ := d.status.annErr.Load().(string); e != "" {
		// The approximate index could not be built for the serving
		// generation: queries still answer (exactly, slower at scale) — a
		// degradation worth alerting on, not an outage.
		reasons = append(reasons, "ann_degraded")
		resp["ann_error"] = e
	}
	st := d.ing.Stats()
	resp["ingest"] = st
	if st.Stalled {
		// The model still answers, but it is aging against a silent feed —
		// degraded, with the silence spelled out.
		reasons = append(reasons, "ingest_stalled")
		resp["ingest_stalled"] = true
	}
	if d.walLog != nil && st.LogFailed > 0 {
		// Events reached the window without confirmed durability (a failed
		// append or fsync): serving continues, but a crash now would lose
		// them — degraded, not dead.
		reasons = append(reasons, "wal_degraded")
		resp["wal_failed"] = st.LogFailed
	}
	// Sorted by cause name, so the list is deterministic however the causes
	// accumulated — aggregators and alert rules can match on position.
	sort.Strings(reasons)
	if len(reasons) > 0 {
		resp["status"] = "degraded"
		resp["stale"] = true
		resp["degraded_reasons"] = reasons
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
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
		stats, _, tr, eval := d.cut()
		d.seedInterner(m.Words())
		g := core.Look(tr, eval, core.EmbeddingFromModel(m, tr, d.cfg), labels.Build(tr, d.feeds), d.cfg)
		// No baseline at boot, so nothing to fail: see gateCheck.
		snap, _ := d.captureGeneration(g)
		d.serve(g, &stats, v, nil)
		d.acceptGeneration(snap, nil, v)
		return true
	}
}

// cut takes a generation's input from the window: the /v1/stats summary
// and the day count, which the daemon keeps, and the trainable events and
// their eval days, which it hands to core and does not keep — core reads
// what its later stages need of them before it trains, so they are garbage
// while the model trains.
func (d *daemon) cut() (stats trace.Stats, days int, tr, eval *trace.Trace) {
	c := d.ing.Window().Cut(d.o.ingestMinPkts, d.cfg.MinPackets)
	if d.o.onCut != nil {
		d.o.onCut(c)
	}
	return c.Stats, c.Days(), c.Trainable, c.LastDays(d.o.evalDays)
}

// seedInterner interns the IP-shaped vocabulary of a store-booted model so
// the exported id space covers the generation actually serving, not just
// senders seen since boot. Synthetic tokens (the pad word, service markers)
// are skipped — the export is a sender table. Ids differ from the previous
// process's anyway; the fresh epoch forces mirrors to re-sync regardless.
func (d *daemon) seedInterner(words []string) {
	in := d.ing.Window().Interner()
	for _, w := range words {
		if ip, err := netutil.ParseIPv4(w); err == nil {
			in.Intern(ip)
		}
	}
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

// annWanted reports whether the approximate index should be built for a
// space of n senders: at -annmin and above, never when -annmin is 0.
func (o *options) annWanted(n int) bool {
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
// included: cut the window (its trainable senders' events, its /v1/stats),
// core.Generate (train warm from the serving generation when -warm asked
// for it, cold otherwise, and take the one look at the eval space), gate
// it against the drift baseline, publish with load-back verification,
// swap. What a failure costs follows from whether a generation is serving
// (the table in the package comment); a returned error reaches the retrain
// supervisor's backoff and breaker, or ends a daemon with no live source
// that has nothing to serve.
func (d *daemon) cycle(ctx context.Context) error {
	fail := func(err error) error {
		d.status.stale.Store(true)
		d.status.lastErr.Store(err.Error())
		return err
	}
	stats, days, tr, eval := d.cut()
	if stats.Packets < d.o.ingestMin {
		// A thin window is a fact about the darknet, not a failure:
		// skip the cycle without burning the breaker or flagging
		// degraded, and try again next tick.
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
	d.o.logf("training on %d events (%d days)...", stats.Packets, days)
	g, err := core.Generate(tr, eval, labels.Build(tr, d.feeds), d.cfg, topts)
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
