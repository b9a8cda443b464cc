package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/robust"
)

// Aggregator defaults.
const (
	DefaultPollInterval = 2 * time.Second
	DefaultQueryTimeout = 5 * time.Second
)

// VantageConfig names one vantage daemon the aggregator federates.
type VantageConfig struct {
	Name string // vantage name, e.g. "north"
	URL  string // daemon base URL, e.g. "http://127.0.0.1:8081"
}

// Config assembles an Aggregator.
type Config struct {
	Vantages []VantageConfig
	// Poll is the health/sync probe interval (default 2s).
	Poll time.Duration
	// Timeout bounds each vantage request attempt (default 5s).
	Timeout time.Duration
	// K is the default neighbourhood size forwarded to vantage classifiers.
	K int
	// RequestTimeout / MaxInFlight harden the aggregator's own serving path
	// exactly like apiserver (zeroes take the apiserver defaults).
	RequestTimeout time.Duration
	MaxInFlight    int
	// Logf, when non-nil, narrates vantage state transitions.
	Logf func(format string, args ...any)
}

// vantageStatus is a vantage's admission state.
type vantageStatus int

const (
	vantageDown    vantageStatus = iota // unreachable or not ready
	vantageSyncing                      // reachable; intern mirror syncing
	vantageReady                        // admitted: serving + mirror current
)

func (s vantageStatus) String() string {
	switch s {
	case vantageDown:
		return "down"
	case vantageSyncing:
		return "syncing"
	case vantageReady:
		return "ready"
	}
	return fmt.Sprintf("vantageStatus(%d)", int(s))
}

// vantage is the aggregator's view of one vantage daemon: the client it is
// polled through and the locally mirrored intern table that makes
// cross-vantage sender lookups a purely local read.
type vantage struct {
	name   string
	client *Client

	mu         sync.RWMutex
	status     vantageStatus
	reason     string // why not ready ("" when ready)
	epoch      string
	generation string
	senders    []string        // id → sender mirror, aligned to the vantage's table
	seen       map[string]bool // sender → observed, for /v1/federated/senders
}

func (v *vantage) snapshot() (vantageStatus, string, string) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.status, v.reason, v.generation
}

// markDown demotes the vantage. The intern mirror is kept: sender lookups
// stay answerable from the last synced view (explicitly marked degraded),
// which is strictly more useful than forgetting everything the vantage
// ever reported.
func (v *vantage) markDown(reason string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.status = vantageDown
	v.reason = reason
}

// Aggregator mirrors a set of vantage daemons and serves federated queries.
// Build with NewAggregator, start the poll loops with Run, and serve it as
// an http.Handler.
type Aggregator struct {
	cfg      Config
	vantages []*vantage // sorted by name
	handler  http.Handler
}

// NewAggregator builds the aggregator. Vantage names must be unique.
func NewAggregator(cfg Config) (*Aggregator, error) {
	if len(cfg.Vantages) == 0 {
		return nil, errors.New("federation: no vantages configured")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPollInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultQueryTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	a := &Aggregator{cfg: cfg}
	names := map[string]bool{}
	for _, vc := range cfg.Vantages {
		if vc.Name == "" || vc.URL == "" {
			return nil, fmt.Errorf("federation: vantage needs name and url, got %+v", vc)
		}
		if names[vc.Name] {
			return nil, fmt.Errorf("federation: duplicate vantage %q", vc.Name)
		}
		names[vc.Name] = true
		a.vantages = append(a.vantages, &vantage{
			name: vc.Name,
			client: NewClient(vc.Name, vc.URL, ClientConfig{
				Timeout:         cfg.Timeout,
				BreakerCooldown: cfg.Poll,
			}),
			reason: "not yet polled",
			seen:   map[string]bool{},
		})
	}
	sort.Slice(a.vantages, func(i, j int) bool { return a.vantages[i].name < a.vantages[j].name })

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz/live", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"live"}`)
	})
	mux.HandleFunc("GET /healthz/ready", a.handleReady)
	mux.HandleFunc("GET /v1/federated/classify", a.handleClassify)
	mux.HandleFunc("GET /v1/federated/senders", a.handleSenders)
	mux.HandleFunc("GET /v1/federated/vantages", a.handleVantages)
	a.handler = apiserver.Harden(mux, cfg.RequestTimeout, cfg.MaxInFlight, cfg.Logf)
	return a, nil
}

// ServeHTTP implements http.Handler through the hardening chain.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.handler.ServeHTTP(w, r)
}

// Run starts one poll loop per vantage and blocks until ctx dies. Each
// vantage is polled independently — a hung vantage delays only its own
// loop, never its peers'.
func (a *Aggregator) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, v := range a.vantages {
		wg.Add(1)
		go func(v *vantage) {
			defer wg.Done()
			a.pollLoop(ctx, v)
		}(v)
	}
	wg.Wait()
}

func (a *Aggregator) pollLoop(ctx context.Context, v *vantage) {
	a.poll(ctx, v)
	ticker := time.NewTicker(a.cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			a.poll(ctx, v)
		}
	}
}

// poll is one admission cycle for one vantage: readiness probe, then
// generation + intern-table sync, and only then (re-)admission. A vantage
// that just returned from a crash is therefore never marked ready while the
// aggregator's mirror still reflects the pre-crash id space.
func (a *Aggregator) poll(ctx context.Context, v *vantage) {
	ctx, cancel := context.WithTimeout(ctx, a.cfg.Poll+a.cfg.Timeout)
	defer cancel()

	prev, _, _ := v.snapshot()
	st, err := v.client.Ready(ctx)
	if err != nil {
		v.markDown(fmt.Sprintf("unreachable: %v", err))
		if prev == vantageReady {
			a.cfg.Logf("vantage %s: down (%v)", v.name, err)
		}
		return
	}
	_ = st // a degraded vantage still serves; only unreachable/untrained is down

	// Admission gate: sync the intern mirror (and with it epoch +
	// generation) before the vantage answers federated queries. A vantage
	// that is already admitted stays admitted through a routine re-sync —
	// demoting it here would open a per-poll window where a perfectly
	// healthy fleet answers "no vantage admitted".
	v.mu.Lock()
	if v.status != vantageReady {
		v.status = vantageSyncing
	}
	epoch, have := v.epoch, v.senders
	v.mu.Unlock()

	synced, page, err := v.client.SyncIntern(ctx, epoch, have)
	if err != nil || page == nil {
		v.markDown(fmt.Sprintf("intern sync failed: %v", err))
		return
	}
	v.mu.Lock()
	newSince := len(v.senders)
	if page.Epoch != v.epoch {
		// The daemon restarted (or this is the first sync): the id space was
		// re-minted, so the seen-set is rebuilt from the fresh mirror.
		if v.epoch != "" {
			a.cfg.Logf("vantage %s: restarted (epoch %s -> %s); intern mirror rebuilt with %d senders",
				v.name, v.epoch, page.Epoch, len(synced))
		}
		v.seen = make(map[string]bool, len(synced))
		newSince = 0
	}
	for _, s := range synced[newSince:] {
		v.seen[s] = true
	}
	v.senders = synced
	v.epoch = page.Epoch
	v.generation = page.Generation
	v.status = vantageReady
	v.reason = ""
	v.mu.Unlock()
	if prev != vantageReady {
		a.cfg.Logf("vantage %s: admitted (generation %q, %d senders mirrored)", v.name, page.Generation, len(synced))
	}
}

// degraded returns the sorted degraded_reasons entries for every
// not-ready vantage, as "vantage:<name>: <detail>".
func (a *Aggregator) degraded() []string {
	var out []string
	for _, v := range a.vantages {
		st, reason, _ := v.snapshot()
		if st != vantageReady {
			out = append(out, fmt.Sprintf("vantage:%s: %s", v.name, reason))
		}
	}
	sort.Strings(out) // vantages are name-sorted already; keep the invariant explicit
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleReady composes fleet health. All vantages admitted: ready. Some:
// degraded, with sorted vantage:<name> reasons. None: 503 — the aggregator
// is up but cannot answer anything fresh.
func (a *Aggregator) handleReady(w http.ResponseWriter, _ *http.Request) {
	degraded := a.degraded()
	ready := len(a.vantages) - len(degraded)
	if ready == 0 {
		robust.Unavailable(w, 5, "no vantage admitted")
		return
	}
	resp := map[string]any{
		"status":         "ready",
		"vantages":       len(a.vantages),
		"vantages_ready": ready,
	}
	if len(degraded) > 0 {
		resp["status"] = "degraded"
		resp["degraded_reasons"] = degraded
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleVantages is the per-vantage status inventory.
func (a *Aggregator) handleVantages(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Vantage    string `json:"vantage"`
		Status     string `json:"status"`
		Generation string `json:"generation,omitempty"`
		Senders    int    `json:"senders"`
		Reason     string `json:"reason,omitempty"`
	}
	var out []entry
	for _, v := range a.vantages {
		v.mu.RLock()
		out = append(out, entry{
			Vantage: v.name, Status: v.status.String(), Generation: v.generation,
			Senders: len(v.senders), Reason: v.reason,
		})
		v.mu.RUnlock()
	}
	writeJSON(w, http.StatusOK, out)
}

func ipParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	ip := r.URL.Query().Get("ip")
	if _, err := netutil.ParseIPv4(ip); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("invalid or missing ip parameter: %v", err),
		})
		return "", false
	}
	return ip, true
}

// handleClassify fans the query out to every admitted vantage in parallel
// and merges the answers by summed k-NN vote. Degradation never drops the
// request: as long as one vantage answers, the client gets a verdict plus
// the exact list of vantages that could not contribute.
func (a *Aggregator) handleClassify(w http.ResponseWriter, r *http.Request) {
	ip, ok := ipParam(w, r)
	if !ok {
		return
	}
	k := 0
	if s := r.URL.Query().Get("k"); s != "" {
		k, _ = strconv.Atoi(s)
	}
	if k <= 0 {
		k = a.cfg.K
	}

	ctx, cancel := context.WithTimeout(r.Context(), a.cfg.Timeout)
	defer cancel()

	type result struct {
		name   string
		answer *VantageAnswer
		err    error
	}
	results := make(chan result, len(a.vantages))
	asked := 0
	degraded := a.degraded()
	for _, v := range a.vantages {
		if st, _, _ := v.snapshot(); st != vantageReady {
			continue
		}
		asked++
		go func(v *vantage) {
			ans, err := v.client.Classify(ctx, ip, k)
			results <- result{v.name, ans, err}
		}(v)
	}

	resp := ClassifyResponse{IP: ip}
	for i := 0; i < asked; i++ {
		res := <-results
		switch {
		case res.err == nil:
			resp.Vantages = append(resp.Vantages, *res.answer)
		case errors.Is(res.err, ErrUnknownSender):
			resp.Unknown = append(resp.Unknown, res.name)
		default:
			// Admitted when the query started, gone now — the poll loop will
			// demote it; this answer already reports the hole.
			degraded = append(degraded, fmt.Sprintf("vantage:%s: query failed: %v", res.name, res.err))
		}
	}
	sort.Slice(resp.Vantages, func(i, j int) bool { return resp.Vantages[i].Vantage < resp.Vantages[j].Vantage })
	sort.Strings(resp.Unknown)
	sort.Strings(degraded)
	resp.DegradedReasons = degraded
	resp.Class, resp.Votes = MergeAnswers(resp.Vantages)

	if len(resp.Vantages) == 0 {
		if asked == 0 && len(resp.Unknown) == 0 {
			// Nothing admitted at all: the federated plane is down.
			robust.Unavailable(w, 5, "no vantage admitted")
			return
		}
		// Vantages answered but none knows the sender: a 404 with the same
		// shape, so callers see exactly who was consulted.
		writeJSON(w, http.StatusNotFound, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSenders answers "which vantages saw this sender" from the local
// intern mirrors — no vantage round trip, so it answers (marked degraded)
// even while vantages are down.
func (a *Aggregator) handleSenders(w http.ResponseWriter, r *http.Request) {
	ip, ok := ipParam(w, r)
	if !ok {
		return
	}
	resp := SendersResponse{IP: ip, Vantages: []string{}, DegradedReasons: a.degraded()}
	for _, v := range a.vantages {
		v.mu.RLock()
		if v.seen[ip] {
			resp.Vantages = append(resp.Vantages, v.name)
		}
		v.mu.RUnlock()
	}
	sort.Strings(resp.Vantages)
	writeJSON(w, http.StatusOK, resp)
}
