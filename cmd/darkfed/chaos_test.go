package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/apiserver"
	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/corpus"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/federation"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// vantageProc is one vantage daemon as a controllable process stand-in: a
// real trained model behind the real apiserver and intern-export handlers,
// on a real TCP port that survives kill/restart cycles. kill() is the
// kill -9 shape — listener and connections die instantly, no draining —
// and start() after a kill simulates the reboot: fresh interner (ids
// re-minted), fresh epoch, next generation.
type vantageProc struct {
	t    *testing.T
	name string
	tr   *trace.Trace
	addr string // pinned after first start; restarts rebind it
	gen  int
	srv  *http.Server
}

func (p *vantageProc) start() {
	p.t.Helper()
	p.gen++
	handler := buildVantageHandler(p.t, p.name, p.tr, fmt.Sprintf("v%06d", p.gen))
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// A freshly killed listener can need a beat before the port rebinds.
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			p.t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.addr = ln.Addr().String()
	p.srv = &http.Server{Handler: handler}
	go p.srv.Serve(ln)
}

func (p *vantageProc) kill() { p.srv.Close() }

// buildVantageHandler trains a real (tiny) model on the vantage's view and
// assembles the daemon surface the aggregator consumes: /healthz/ready,
// /v1/intern, and the model API.
func buildVantageHandler(t *testing.T, name string, tr *trace.Trace, gen string) http.Handler {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.W2V.Dim = 8
	cfg.W2V.Window = 4
	cfg.W2V.Epochs = 1
	cfg.MinPackets = 1
	interner := corpus.NewInterner()
	emb, err := core.TrainEmbeddingOpts(tr, cfg, core.TrainOpts{Interner: interner})
	if err != nil {
		t.Fatalf("train %s: %v", name, err)
	}
	space, _ := emb.EvalSpace(tr, nil)
	gt := labels.Build(tr, nil)
	api := apiserver.New(apiserver.Config{
		Space: space, GT: gt, Trace: tr, Seed: 1, ModelVersion: gen,
		Logf: func(string, ...any) {},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz/ready", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.Handle("GET /v1/intern", federation.NewInternHandler(federation.InternSource{
		Vantage: name, Epoch: federation.NewEpoch(), Table: interner,
		Generation: func() string { return gen },
	}))
	mux.Handle("/", api)
	return mux
}

// carve3 splits the simulated /24 into three /26 vantage blocks (the
// fourth quarter is unmonitored space).
func carve3() []darksim.Vantage {
	return []darksim.Vantage{
		{Name: "north", Block: netutil.MustParseSubnet("198.18.0.0/26")},
		{Name: "south", Block: netutil.MustParseSubnet("198.18.0.64/26")},
		{Name: "west", Block: netutil.MustParseSubnet("198.18.0.128/26")},
	}
}

// sharedSender picks the sender with the highest minimum packet count
// across all views — guaranteed present in every vantage's model.
func sharedSender(t *testing.T, views map[string]*trace.Trace) string {
	t.Helper()
	minCount := map[netutil.IPv4]int{}
	first := true
	for _, tr := range views {
		counts := tr.SenderCounts()
		if first {
			for ip, n := range counts {
				minCount[ip] = n
			}
			first = false
			continue
		}
		for ip := range minCount {
			if n, ok := counts[ip]; ok {
				minCount[ip] = min(minCount[ip], n)
			} else {
				delete(minCount, ip)
			}
		}
	}
	var best netutil.IPv4
	bestN := 0
	for ip, n := range minCount {
		if n > bestN {
			best, bestN = ip, n
		}
	}
	if bestN == 0 {
		t.Fatal("no sender shared across all vantages")
	}
	return best.String()
}

// waitUntil polls cond every 25ms until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestChaosKillVantageMidStorm is the federation chaos drill: three vantage
// daemons behind one darkfed, a classify storm running throughout, one
// vantage killed (kill -9 shape) mid-storm. Required outcomes: ZERO dropped
// aggregator requests — every storm request gets a well-formed 200 —
// /healthz/ready degrades with the dead vantage named in sorted
// degraded_reasons, and the rejoining vantage (same port, re-minted id
// space, next generation) is re-admitted to full three-vantage answers
// without an aggregator restart.
func TestChaosKillVantageMidStorm(t *testing.T) {
	out := darksim.Generate(darksim.Config{Seed: 7, Days: 2, Scale: 0.01, Rate: 0.1})
	views, err := darksim.SplitVantages(out.Trace, carve3())
	if err != nil {
		t.Fatal(err)
	}
	ip := sharedSender(t, views)

	procs := map[string]*vantageProc{}
	var cfgs []federation.VantageConfig
	for name, view := range views {
		p := &vantageProc{t: t, name: name, tr: view}
		p.start()
		defer p.kill()
		procs[name] = p
		cfgs = append(cfgs, federation.VantageConfig{Name: name, URL: "http://" + p.addr})
	}

	o := options{
		listen:   "127.0.0.1:0",
		vantages: cfgs,
		poll:     50 * time.Millisecond,
		timeout:  2 * time.Second,
		drain:    5 * time.Second,
		logf:     func(string, ...any) {},
	}
	listenCh := make(chan string, 1)
	o.onListen = func(addr string) { listenCh <- addr }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, o) }()
	var base string
	select {
	case addr := <-listenCh:
		base = "http://" + addr
	case err := <-runErr:
		t.Fatalf("darkfed exited: %v", err)
	}

	classifyContributors := func() ([]string, int) {
		resp, err := http.Get(base + "/v1/federated/classify?ip=" + ip)
		if err != nil {
			return nil, 0
		}
		defer resp.Body.Close()
		var body federation.ClassifyResponse
		_ = json.NewDecoder(resp.Body).Decode(&body)
		var names []string
		for _, v := range body.Vantages {
			names = append(names, v.Vantage)
		}
		return names, resp.StatusCode
	}
	readyStatus := func() (string, []string) {
		resp, err := http.Get(base + "/healthz/ready")
		if err != nil {
			return "", nil
		}
		defer resp.Body.Close()
		var body struct {
			Status          string   `json:"status"`
			DegradedReasons []string `json:"degraded_reasons"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return body.Status, body.DegradedReasons
	}

	// All three vantages admitted and contributing.
	waitUntil(t, 15*time.Second, func() bool {
		names, code := classifyContributors()
		return code == http.StatusOK && len(names) == 3
	}, "all three vantages contributing")

	// The storm: hammer federated classify for the whole drill. Every
	// request must come back as a well-formed 200 — degradation shows up in
	// the payload, never as a dropped or failed request.
	var stormStop atomic.Bool
	var total, dropped atomic.Int64
	var failMu sync.Mutex
	var failures []string
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stormStop.Load() {
				resp, err := client.Get(base + "/v1/federated/classify?ip=" + ip)
				total.Add(1)
				if err != nil {
					dropped.Add(1)
					failMu.Lock()
					failures = append(failures, err.Error())
					failMu.Unlock()
					continue
				}
				if resp.StatusCode != http.StatusOK {
					dropped.Add(1)
					var buf [512]byte
					n, _ := resp.Body.Read(buf[:])
					failMu.Lock()
					failures = append(failures, fmt.Sprintf("status %d: %s", resp.StatusCode, buf[:n]))
					failMu.Unlock()
				}
				_ = resp.Body.Close()
			}
		}()
	}

	// Let the storm run against the healthy fleet, then pull the plug.
	time.Sleep(300 * time.Millisecond)
	procs["south"].kill()

	// The aggregator notices, degrades, and names the dead vantage.
	waitUntil(t, 15*time.Second, func() bool {
		status, reasons := readyStatus()
		if status != "degraded" || len(reasons) != 1 {
			return false
		}
		return strings.HasPrefix(reasons[0], "vantage:south")
	}, "degraded_reasons naming vantage:south")

	// Survivor answers keep flowing mid-outage.
	waitUntil(t, 15*time.Second, func() bool {
		names, code := classifyContributors()
		return code == http.StatusOK && len(names) == 2
	}, "two-vantage answers during the outage")

	// Rejoin: same port, re-minted ids, next generation. Re-admission must
	// restore full answers with no aggregator restart.
	procs["south"].start()
	waitUntil(t, 30*time.Second, func() bool {
		status, reasons := readyStatus()
		if status != "ready" || len(reasons) != 0 {
			return false
		}
		names, code := classifyContributors()
		return code == http.StatusOK && len(names) == 3
	}, "full recovery after rejoin")

	// Wind down the storm and tally: zero dropped requests, ever.
	stormStop.Store(true)
	wg.Wait()
	if total.Load() < 50 {
		t.Fatalf("storm only made %d requests; drill too short to mean anything", total.Load())
	}
	if dropped.Load() != 0 {
		t.Fatalf("%d of %d storm requests dropped or failed during the kill/rejoin cycle: %q",
			dropped.Load(), total.Load(), failures)
	}
	t.Logf("storm: %d requests, 0 dropped", total.Load())

	// The rejoined vantage serves its new generation through the aggregator.
	resp, err := http.Get(base + "/v1/federated/vantages")
	if err != nil {
		t.Fatal(err)
	}
	var inventory []struct {
		Vantage    string `json:"vantage"`
		Status     string `json:"status"`
		Generation string `json:"generation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&inventory)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range inventory {
		wantGen := "v000001"
		if v.Vantage == "south" {
			wantGen = "v000002" // the reboot's generation
		}
		if v.Status != "ready" || v.Generation != wantGen {
			t.Fatalf("inventory entry %+v, want ready/%s", v, wantGen)
		}
	}

	// Retire the keep-alive connections before the stop: a connection the
	// client dialed but never sent a request on counts as busy to the
	// server's drain for its first five seconds, as long as -drain itself.
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("darkfed exit: %v", err)
	}
}
