// Package apiserver exposes a trained DarkVec model over HTTP so the
// embedding can back dashboards and SOC tooling: nearest-neighbour pivots,
// on-demand classification, cluster summaries and dataset statistics. The
// handlers are plain net/http with JSON responses and are safe for
// concurrent use (the underlying model is immutable once served). Every
// server is hardened by default: panics become 500s, requests are bounded
// by a per-request timeout, and excess concurrency is shed with 503s.
package apiserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/knn"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/trace"
)

// Serving-hardening defaults; override via Config.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxInFlight    = 256
)

// Server wires a trained model and its context into an http.Handler.
type Server struct {
	space    *embed.Space
	cls      *knn.Classifier // the generation's label table, resolved once
	profiles []cluster.Profile
	assign   []int
	stats    trace.Stats
	version  string // model generation serving this instance, "" when unmanaged
	annErr   string // why the ANN index is absent, "" when built or not requested
	retrain  *RetrainInfo
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the hardening middleware
}

// RetrainInfo describes how the serving generation was trained: from a
// warm seed (the previous generation's vectors plus a delta-sized epoch
// budget) or cold from scratch, how long the cycle's training took, and
// how many epochs actually ran. WarmFallback carries the reason when a
// warm start was requested but the cycle fell back to cold.
type RetrainInfo struct {
	Mode         string  `json:"mode"` // "warm" | "cold"
	DurationSecs float64 `json:"duration_s"`
	Epochs       int     `json:"epochs"`
	WarmFallback string  `json:"warm_fallback,omitempty"`
}

// Config assembles a Server.
type Config struct {
	// View is the generation's labels, clusters and silhouette when the
	// caller already has them (darkvecd's drift gate judged this very
	// view); nil builds one from Space, GT, KPrime and Seed.
	View  *core.View
	Space *embed.Space
	GT    *labels.Set
	// Tally is the served senders' packets per port, for /v1/clusters
	// (darkvecd hands over its generation's); nil tallies Trace.
	Tally *cluster.PortTally
	// Trace holds the served senders' events. New reads it only when Tally
	// or Stats is nil, and keeps no pointer into it.
	Trace *trace.Trace
	// Stats, when non-nil, is what /v1/stats serves: a summary the caller
	// already has, over events Trace need not hold (darkvecd's window cut
	// summarises every buffered sender). nil summarises Trace.
	// New copies it, so the Server holds no pointer into the caller's
	// memory.
	Stats *trace.Stats
	// KPrime controls the clustering exposed at /clusters (default 3).
	KPrime int
	// Seed for the clustering pass.
	Seed uint64
	// RequestTimeout bounds each request (default DefaultRequestTimeout;
	// negative disables).
	RequestTimeout time.Duration
	// MaxInFlight caps concurrent requests, shedding the excess with 503
	// (default DefaultMaxInFlight; negative disables).
	MaxInFlight int
	// Logf, when non-nil, receives recovered handler panics.
	Logf func(format string, args ...any)
	// ModelVersion, when non-empty, is stamped on every response as
	// X-DarkVec-Model-Version so operators can tell which store generation
	// answered (and watch a retrain roll through a fleet).
	ModelVersion string
	// ANNError records why the approximate index is absent when one was
	// requested (build failure → exact fallback). Surfaced on /v1/model so
	// operators can see the degradation without reading the daemon log.
	ANNError string
	// Retrain, when non-nil, reports how this generation was trained
	// (warm vs cold, duration, epochs) on /v1/model.
	Retrain *RetrainInfo
}

// Harden wraps h in the serving middleware stack: panic recovery
// outermost, then load shedding, then the per-request timeout. New applies
// it to every Server; exposed so daemons and tests can harden auxiliary
// handlers with the exact same chain.
func Harden(h http.Handler, timeout time.Duration, maxInFlight int, logf func(format string, args ...any)) http.Handler {
	h = robust.Timeout(h, timeout)
	h = robust.LimitInFlight(h, maxInFlight)
	var onPanic func(v any)
	if logf != nil {
		onPanic = func(v any) { logf("panic in handler: %v", v) }
	}
	return robust.Recover(h, onPanic)
}

// StaleHeader stamps X-DarkVec-Model-Stale: true (and, when stale returns
// a reason, X-DarkVec-Model-Stale-Reason) on every response while the
// predicate holds. Daemons use it to make degradation visible on the
// serving path itself — a failed retrain or a stalled live feed marks every
// answer, not just the health endpoint, so a client pivoting on month-old
// neighbours can tell. The predicate is evaluated per request, so the
// header clears the moment the daemon recovers.
func StaleHeader(h http.Handler, stale func() (bool, string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := stale(); ok {
			w.Header().Set("X-DarkVec-Model-Stale", "true")
			if reason != "" {
				w.Header().Set("X-DarkVec-Model-Stale-Reason", reason)
			}
		}
		h.ServeHTTP(w, r)
	})
}

// New builds the server over one view of the space — the label table and
// one clustering pass, resolved up front — so no handler does work that
// grows with the space beyond its neighbour search.
func New(cfg Config) *Server {
	v := cfg.View
	if v == nil {
		v = core.NewView(cfg.Space, cfg.GT, cfg.KPrime, cfg.Seed)
	}
	var stats trace.Stats
	if cfg.Stats != nil {
		stats = *cfg.Stats
	} else {
		stats = cfg.Trace.Summary(trace.TopTCPRows)
	}
	s := &Server{
		space:   v.Space,
		cls:     knn.NewClassifier(v.Space, v.Space.ANN(), v.Labels),
		stats:   stats,
		version: cfg.ModelVersion,
		annErr:  cfg.ANNError,
		retrain: cfg.Retrain,
		mux:     http.NewServeMux(),
	}
	switch {
	case v.Err != nil:
		// Cluster profiles are advisory; a space the metric refuses to
		// score still serves similarity and classification, it just
		// answers /v1/clusters with nothing.
		if cfg.Logf != nil {
			cfg.Logf("clusters unavailable: %v", v.Err)
		}
	case v.Space.Len() > 1:
		s.assign = v.Assign
		tally := cfg.Tally
		if tally == nil {
			tally = cluster.TallyWords(cfg.Trace, v.Space.Words)
		}
		s.profiles = v.Profiles(tally)
	}
	s.routes()
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	s.handler = Harden(s.mux, timeout, maxInFlight, cfg.Logf)
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/similar", s.handleSimilar)
	s.mux.HandleFunc("GET /v1/classify", s.handleClassify)
	s.mux.HandleFunc("GET /v1/clusters", s.handleClusters)
	s.mux.HandleFunc("GET /v1/sender", s.handleSender)
	s.mux.HandleFunc("GET /v1/model", s.handleModel)
}

// ServeHTTP implements http.Handler, routing through the hardening chain.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.version != "" {
		w.Header().Set("X-DarkVec-Model-Version", s.version)
	}
	s.handler.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, &s.stats)
}

// senderParams parses the query string once: ?ip= validated and resolved
// to its row (400 and 404 are written here), ?k= with a default and sane
// bounds.
func (s *Server) senderParams(w http.ResponseWriter, r *http.Request, defK int) (ip string, row, k int, ok bool) {
	q := r.URL.Query()
	ip = q.Get("ip")
	if _, err := netutil.ParseIPv4(ip); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid or missing ip parameter: %v", err)
		return "", 0, 0, false
	}
	if row, ok = s.space.Index(ip); !ok {
		writeErr(w, http.StatusNotFound, "sender %s not in the embedding", ip)
		return "", 0, 0, false
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k <= 0 || k > 100 {
		k = defK
	}
	return ip, row, k, true
}

// SimilarResponse is the /v1/similar payload.
type SimilarResponse struct {
	IP        string         `json:"ip"`
	Neighbors []SimilarEntry `json:"neighbors"`
}

// SimilarEntry is one neighbour with its label.
type SimilarEntry struct {
	IP    string  `json:"ip"`
	Sim   float64 `json:"similarity"`
	Class string  `json:"class"`
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	ip, row, k, ok := s.senderParams(w, r, 10)
	if !ok {
		return
	}
	// Rides the approximate index when one is attached to the space; falls
	// back to the exact engine transparently otherwise.
	nn := s.space.KNNApprox(row, k)
	resp := SimilarResponse{IP: ip, Neighbors: make([]SimilarEntry, len(nn))}
	for i, n := range nn {
		resp.Neighbors[i] = SimilarEntry{IP: s.space.Words[n.Row], Sim: n.Sim, Class: s.cls.Class(n.Row)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ClassifyResponse is the /v1/classify payload.
type ClassifyResponse struct {
	IP      string  `json:"ip"`
	Class   string  `json:"class"`
	Known   string  `json:"known_label"`
	Support int     `json:"votes"`
	AvgSim  float64 `json:"avg_similarity"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	ip, _, k, ok := s.senderParams(w, r, 7)
	if !ok {
		return
	}
	pred, _ := s.cls.One(ip, k)
	writeJSON(w, http.StatusOK, ClassifyResponse{
		IP: ip, Class: pred.Label, Known: pred.Truth,
		Support: pred.Support, AvgSim: pred.AvgSim,
	})
}

// ClusterEntry is one /v1/clusters row.
type ClusterEntry struct {
	Cluster     int     `json:"cluster"`
	Senders     int     `json:"senders"`
	Ports       int     `json:"ports"`
	Subnets24   int     `json:"subnets_24"`
	AvgSil      float64 `json:"avg_silhouette"`
	Dominant    string  `json:"dominant_class"`
	Description string  `json:"description"`
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	minSize, _ := strconv.Atoi(r.URL.Query().Get("min"))
	out := []ClusterEntry{} // encodes as [], never null
	for _, p := range s.profiles {
		if len(p.Senders) < minSize {
			continue
		}
		out = append(out, ClusterEntry{
			Cluster: p.Cluster, Senders: len(p.Senders), Ports: p.Ports,
			Subnets24: p.Subnets24, AvgSil: p.AvgSil, Dominant: p.Dominant,
			Description: p.Describe(labels.Unknown),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Senders > out[j].Senders })
	writeJSON(w, http.StatusOK, out)
}

// ModelResponse is the /v1/model payload: which store generation is
// serving, how big the space is, and whether queries run exact or through
// the approximate index (with the index geometry and calibration when one
// is attached, and the degradation detail when a requested build failed).
type ModelResponse struct {
	Version     string          `json:"version,omitempty"`
	Senders     int             `json:"senders"`
	Dim         int             `json:"dim"`
	KNNMode     string          `json:"knn_mode"` // "ivf" | "exact"
	Index       *embed.IVFStats `json:"index,omitempty"`
	ANNError    string          `json:"ann_error,omitempty"`
	VectorBytes int64           `json:"vector_bytes"`
	Retrain     *RetrainInfo    `json:"retrain,omitempty"`
	// ClassifyExactFallbacks counts /v1/classify requests of this generation
	// whose index probe held no labeled sender and were answered exactly.
	ClassifyExactFallbacks int64 `json:"classify_exact_fallbacks,omitempty"`
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	resp := ModelResponse{
		Version:     s.version,
		Senders:     s.space.Len(),
		Dim:         s.space.Dim,
		KNNMode:     "exact",
		ANNError:    s.annErr,
		VectorBytes: s.space.VectorBytes(),
		Retrain:     s.retrain,

		ClassifyExactFallbacks: s.cls.ExactFallbacks(),
	}
	if ix := s.space.ANN(); ix != nil {
		st := ix.Stats()
		resp.KNNMode = "ivf"
		resp.Index = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// SenderResponse is the /v1/sender payload.
type SenderResponse struct {
	IP      string `json:"ip"`
	Class   string `json:"class"`
	Cluster int    `json:"cluster"`
}

func (s *Server) handleSender(w http.ResponseWriter, r *http.Request) {
	ip, row, _, ok := s.senderParams(w, r, 0)
	if !ok {
		return
	}
	resp := SenderResponse{IP: ip, Class: s.cls.Class(row), Cluster: -1}
	if row < len(s.assign) {
		resp.Cluster = s.assign[row]
	}
	writeJSON(w, http.StatusOK, resp)
}
