package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/federation"
	"github.com/darkvec/darkvec/internal/modelstore"
	"github.com/darkvec/darkvec/internal/robust"
)

// httpFlags configure the API listener, its per-request limits and
// shutdown drain, and the loopback-only pprof listener.
type httpFlags struct {
	listen      string
	pprofAddr   string // "" = off
	reqTimeout  time.Duration
	maxInFlight int
	drain       time.Duration
}

func (o *httpFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8080", "HTTP listen address")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty = off)")
	fs.DurationVar(&o.reqTimeout, "timeout", apiserver.DefaultRequestTimeout, "per-request timeout (0 = none)")
	fs.IntVar(&o.maxInFlight, "maxinflight", apiserver.DefaultMaxInFlight, "max concurrent requests before shedding (0 = unlimited)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
}

func (o *httpFlags) validate() error {
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

// startPprof serves net/http/pprof on -pprof, if set, and returns what
// stops it. A dedicated loopback-only mux: the profiling surface must
// never share a listener with the public API.
func (o *options) startPprof() (stop func(), err error) {
	if o.pprofAddr == "" {
		return func() {}, nil
	}
	pln, err := net.Listen("tcp", o.pprofAddr)
	if err != nil {
		return nil, err
	}
	pmux := http.NewServeMux()
	pmux.HandleFunc("/debug/pprof/", pprof.Index)
	pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = psrv.Serve(pln) }()
	o.logf("pprof on http://%s/debug/pprof/", pln.Addr())
	if o.onPprofListen != nil {
		o.onPprofListen(pln.Addr().String())
	}
	return func() { psrv.Close() }, nil
}

// serveAPI binds the API listener and serves the daemon's endpoints on it;
// serveErr receives the server's exit. It runs before the long first
// training run: liveness probes and fast 503s for not-yet-ready traffic
// beat a connection-refused black hole.
func (d *daemon) serveAPI() (srv *http.Server, serveErr chan error, err error) {
	o := d.o
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return nil, nil, err
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
		Table:   d.ing.Window().Interner(),
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
	srv = &http.Server{
		Handler:           mux,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      writeTimeout,
	}
	serveErr = make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	o.logf("listening on http://%s (training; readiness pending)", ln.Addr())
	if o.onListen != nil {
		o.onListen(ln.Addr().String())
	}
	// The readiness announcement fires exactly once, on the first model
	// swap: a store boot or a static daemon's first cycle, or a live
	// daemon's first cycle in the retrain loop.
	d.readyFn = func() {
		o.logf("ready")
		if o.onReady != nil {
			o.onReady(ln.Addr().String())
		}
	}
	return srv, serveErr, nil
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

// stale is the serving-path degradation predicate: a failed cycle (a drift
// rejection called out specifically), a stalled live feed or a WAL that
// failed to make events durable mark every response. Overlapping causes are
// joined with "; " in cause-name order, the order of /healthz/ready's
// degraded_reasons, so the header is deterministic and scriptable.
func (d *daemon) stale() (bool, string) {
	var details []string
	stale, drifted := d.status.stale.Load(), d.status.driftReject.Load()
	if stale && drifted {
		details = append(details, "drift gate rejected retrain (serving previous generation)")
	}
	if d.ing.Stalled() {
		details = append(details, fmt.Sprintf("live feed silent for %s", d.ing.Silence().Round(time.Second)))
	}
	if stale && !drifted {
		details = append(details, "retrain failed (serving the last good model)")
	}
	if n := d.ing.Stats().LogFailed; d.walLog != nil && n > 0 {
		details = append(details, fmt.Sprintf("%d events in the window lack durability (WAL append/fsync failed)", n))
	}
	return len(details) > 0, strings.Join(details, "; ")
}
