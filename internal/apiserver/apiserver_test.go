package apiserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/w2v"
)

var (
	setupOnce sync.Once
	testSrv   *httptest.Server
	testData  *darksim.Output
)

func server(t *testing.T) (*httptest.Server, *darksim.Output) {
	t.Helper()
	setupOnce.Do(func() {
		out := darksim.Generate(darksim.Config{Seed: 4, Days: 6, Scale: 0.01, Rate: 0.05})
		cfg := core.DefaultConfig()
		cfg.W2V = w2v.Config{Dim: 16, Window: 8, Epochs: 3, Seed: 1, ShrinkWindow: true, PadToken: "NULL"}
		emb, err := core.TrainEmbedding(out.Trace, cfg)
		if err != nil {
			panic(err)
		}
		gt := labels.Build(out.Trace, out.Feeds)
		space, _ := emb.EvalSpace(out.Trace.LastDays(1), nil)
		testSrv = httptest.NewServer(New(Config{Space: space, GT: gt, Trace: out.Trace, Seed: 1}))
		testData = out
	})
	return testSrv, testData
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// TestHealthz: a model generation has no health route of its own — health
// is the daemon's /healthz/live and /healthz/ready, which can say
// "degraded"; a bare /healthz must not answer "ok" behind their back.
func TestHealthz(t *testing.T) {
	srv, _ := server(t)
	getJSON(t, srv.URL+"/healthz", http.StatusNotFound, nil)
}

func TestStats(t *testing.T) {
	srv, _ := server(t)
	var out struct {
		Sources int `json:"Sources"`
		Packets int `json:"Packets"`
	}
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &out)
	if out.Sources == 0 || out.Packets == 0 {
		t.Fatalf("stats = %+v", out)
	}
}

func TestSimilar(t *testing.T) {
	srv, data := server(t)
	exemplar := data.Feeds[darksim.ClassCensys][0].String()
	var out SimilarResponse
	getJSON(t, srv.URL+"/v1/similar?ip="+exemplar+"&k=5", http.StatusOK, &out)
	if len(out.Neighbors) != 5 {
		t.Fatalf("neighbors = %d", len(out.Neighbors))
	}
	for i := 1; i < len(out.Neighbors); i++ {
		if out.Neighbors[i].Sim > out.Neighbors[i-1].Sim {
			t.Fatal("neighbours must be sorted by similarity")
		}
	}
	// A coordinated scanner's nearest neighbour should share its class.
	if out.Neighbors[0].Class != darksim.ClassCensys {
		t.Logf("warning: top neighbour class = %s (acceptable at tiny scale)", out.Neighbors[0].Class)
	}
}

func TestClassify(t *testing.T) {
	srv, data := server(t)
	exemplar := data.Feeds[darksim.ClassEnginUmich][0].String()
	var out ClassifyResponse
	getJSON(t, srv.URL+"/v1/classify?ip="+exemplar, http.StatusOK, &out)
	if out.Class == "" || out.Support == 0 {
		t.Fatalf("classify = %+v", out)
	}
	if out.Known != darksim.ClassEnginUmich {
		t.Fatalf("known label = %s", out.Known)
	}
}

func TestClusters(t *testing.T) {
	srv, _ := server(t)
	var out []ClusterEntry
	getJSON(t, srv.URL+"/v1/clusters?min=3", http.StatusOK, &out)
	if len(out) == 0 {
		t.Fatal("no clusters")
	}
	for i := 1; i < len(out); i++ {
		if out[i].Senders > out[i-1].Senders {
			t.Fatal("clusters must be sorted by size")
		}
	}
	for _, c := range out {
		if c.Description == "" {
			t.Fatal("missing description")
		}
	}
}

func TestSenderLookup(t *testing.T) {
	srv, data := server(t)
	exemplar := data.Feeds[darksim.ClassCensys][0].String()
	var out SenderResponse
	getJSON(t, srv.URL+"/v1/sender?ip="+exemplar, http.StatusOK, &out)
	if out.Class != darksim.ClassCensys || out.Cluster < 0 {
		t.Fatalf("sender = %+v", out)
	}
}

func TestErrorPaths(t *testing.T) {
	srv, _ := server(t)
	getJSON(t, srv.URL+"/v1/similar?ip=not-an-ip", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/v1/similar", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/v1/similar?ip=203.0.113.254", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/v1/classify?ip=203.0.113.254", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/v1/sender?ip=203.0.113.254", http.StatusNotFound, nil)
	// Wrong method.
	resp, err := http.Post(srv.URL+"/v1/similar?ip=1.2.3.4", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
}

func TestConcurrentQueries(t *testing.T) {
	srv, data := server(t)
	exemplar := data.Feeds[darksim.ClassCensys][0].String()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/similar?ip=" + exemplar)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestModelVersionHeader(t *testing.T) {
	_, out := server(t)
	cfg := core.DefaultConfig()
	cfg.W2V = w2v.Config{Dim: 16, Window: 8, Epochs: 3, Seed: 1, ShrinkWindow: true, PadToken: "NULL"}
	emb, err := core.TrainEmbedding(out.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gt := labels.Build(out.Trace, out.Feeds)
	space, _ := emb.EvalSpace(out.Trace.LastDays(1), nil)
	s := New(Config{Space: space, GT: gt, Trace: out.Trace, Seed: 1, ModelVersion: "v000007"})

	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	if got := rr.Header().Get("X-DarkVec-Model-Version"); got != "v000007" {
		t.Fatalf("X-DarkVec-Model-Version = %q", got)
	}

	// Unmanaged servers (no store) must not emit an empty header.
	s2 := New(Config{Space: space, GT: gt, Trace: out.Trace, Seed: 1})
	rr = httptest.NewRecorder()
	s2.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	if _, present := rr.Header()["X-Darkvec-Model-Version"]; present {
		t.Fatal("version header present on unmanaged server")
	}
}
