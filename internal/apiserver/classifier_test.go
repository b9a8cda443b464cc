package apiserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/trace"
)

// ipWord is the i-th sender address of the synthetic spaces below.
func ipWord(i int) string { return fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255) }

// syntheticSpace builds n senders in eight gaussian cohorts, cheap enough
// to serve thousands of rows without training anything.
func syntheticSpace(t testing.TB, n int) *embed.Space {
	t.Helper()
	r := netutil.NewRand(7)
	const dim, cohorts = 8, 8
	var centers [cohorts][dim]float64
	for c := range centers {
		for d := range centers[c] {
			centers[c][d] = r.NormFloat64()
		}
	}
	words := make([]string, n)
	vecs := make([][]float32, n)
	for i := range vecs {
		words[i] = ipWord(i)
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(centers[i%cohorts][d] + 0.2*r.NormFloat64())
		}
		vecs[i] = v
	}
	s, err := embed.New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// syntheticServer serves space with the given feeds as ground truth over an
// empty trace.
func syntheticServer(space *embed.Space, feeds map[string][]netutil.IPv4, version string) *Server {
	tr := &trace.Trace{}
	return New(Config{Space: space, GT: labels.Build(tr, feeds), Trace: tr, Seed: 1, ModelVersion: version})
}

func serve(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

// TestEmptyListsEncodeAsArrays: an endpoint that promises a list answers []
// when the list is empty — a ?min= above every cluster, a space too small
// to cluster or to have a neighbour — never null.
func TestEmptyListsEncodeAsArrays(t *testing.T) {
	srv, _ := server(t)
	var raw json.RawMessage
	getJSON(t, srv.URL+"/v1/clusters?min=100000000", http.StatusOK, &raw)
	if string(raw) != "[]" {
		t.Errorf("/v1/clusters above every cluster size = %s, want []", raw)
	}

	solo := syntheticServer(syntheticSpace(t, 1), nil, "")
	if body := strings.TrimSpace(serve(solo, "/v1/clusters").Body.String()); body != "[]" {
		t.Errorf("/v1/clusters with no profile = %s, want []", body)
	}
	rec := serve(solo, "/v1/similar?ip="+ipWord(0))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"neighbors":[]`) {
		t.Errorf("/v1/similar on a one-row space = %d %s, want \"neighbors\":[]", rec.Code, rec.Body)
	}
}

// TestModelReportsClassifyExactFallbacks: a sender that is the only labeled
// row of its cell, probed with nprobe 1, finds nobody to vote in the index;
// the request is answered exactly and /v1/model counts it. The field is
// absent until that happens.
func TestModelReportsClassifyExactFallbacks(t *testing.T) {
	lonely := ipWord(0)
	words, vecs := []string{lonely}, [][]float32{{1, 0, 0}}
	for i := 1; i <= 20; i++ { // lonely's cell mates: not addresses, so unlabeled
		words = append(words, fmt.Sprintf("near%02d", i))
		vecs = append(vecs, []float32{1, 0.001 * float32(i), 0})
	}
	for i := 1; i <= 20; i++ { // the far cell holds every other labeled sender
		words = append(words, ipWord(i))
		vecs = append(vecs, []float32{0, 0.001 * float32(i), 1})
	}
	space, err := embed.New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := space.BuildIVF(embed.IVFOptions{Cells: 2, NProbe: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	srv := syntheticServer(space, nil, "")

	if body := serve(srv, "/v1/model").Body.String(); strings.Contains(body, "classify_exact_fallbacks") {
		t.Fatalf("/v1/model before any fallback: %s", body)
	}
	var pred ClassifyResponse
	if err := json.Unmarshal(serve(srv, "/v1/classify?ip="+lonely+"&k=3").Body.Bytes(), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Class != labels.Unknown || pred.Support != 3 {
		t.Fatalf("fallback answer = %+v, want three %s votes from the far cell", pred, labels.Unknown)
	}
	serve(srv, "/v1/classify?ip="+ipWord(5)+"&k=3") // finds its cell mates: no fallback
	var model ModelResponse
	if err := json.Unmarshal(serve(srv, "/v1/model").Body.Bytes(), &model); err != nil {
		t.Fatal(err)
	}
	if model.ClassifyExactFallbacks != 1 {
		t.Fatalf("classify_exact_fallbacks = %d, want 1", model.ClassifyExactFallbacks)
	}
}

// TestSimilarShortAnswerRerunsExactly: /v1/similar accepts k up to 100, far
// above the k = 10 the probe count is sized for. With ~10 senders a cell
// and one cell probed the index alone holds a tenth of that; the answer
// must still carry 100 neighbours — the exact ones — and /v1/model counts
// the re-run in its index block. The field is absent until that happens.
func TestSimilarShortAnswerRerunsExactly(t *testing.T) {
	space := syntheticSpace(t, 300)
	if _, err := space.BuildIVF(embed.IVFOptions{Cells: 30, NProbe: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	srv := syntheticServer(space, nil, "")

	serve(srv, "/v1/similar?ip="+ipWord(5)+"&k=1") // the probed cell holds one neighbour: no re-run
	if body := serve(srv, "/v1/model").Body.String(); strings.Contains(body, "similar_exact_fallbacks") {
		t.Fatalf("/v1/model before any short answer: %s", body)
	}
	var sim SimilarResponse
	if err := json.Unmarshal(serve(srv, "/v1/similar?ip="+ipWord(17)+"&k=100").Body.Bytes(), &sim); err != nil {
		t.Fatal(err)
	}
	exact := space.KNN(17, 100)
	if len(sim.Neighbors) != 100 {
		t.Fatalf("/v1/similar?k=100 returned %d neighbours, want 100", len(sim.Neighbors))
	}
	for i, n := range exact {
		if got := sim.Neighbors[i]; got.IP != space.Words[n.Row] || got.Sim != n.Sim {
			t.Fatalf("neighbour %d = %+v, want %s at %v (the exact answer)", i, got, space.Words[n.Row], n.Sim)
		}
	}
	var model ModelResponse
	if err := json.Unmarshal(serve(srv, "/v1/model").Body.Bytes(), &model); err != nil {
		t.Fatal(err)
	}
	if model.Index == nil || model.Index.SimilarExactFallbacks != 1 {
		t.Fatalf("index block = %+v, want similar_exact_fallbacks 1", model.Index)
	}
}

// TestGateSwapServesOneGenerationPerAnswer: two generations differ in one
// sender's label. While a gate flips between them, eight clients hammer the
// shared classifiers; every answer must carry the label of the generation
// its X-DarkVec-Model-Version names — never one generation's header on the
// other's table.
func TestGateSwapServesOneGenerationPerAnswer(t *testing.T) {
	space := syntheticSpace(t, 300)
	if _, err := space.BuildIVF(embed.IVFOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	flipped := ipWord(17)
	ip, err := netutil.ParseIPv4(flipped)
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]*Server{
		"gA": syntheticServer(space, map[string][]netutil.IPv4{"alpha": {ip}}, "gA"),
		"gB": syntheticServer(space, map[string][]netutil.IPv4{"beta": {ip}}, "gB"),
	}
	want := map[string]string{"gA": "alpha", "gB": "beta"}

	gate := robust.NewGate()
	gate.Set(gens["gA"])
	var clients sync.WaitGroup
	for c := 0; c < 8; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; i < 250; i++ {
				var label string
				var rec *httptest.ResponseRecorder
				if (i+c)%2 == 0 {
					rec = serve(gate, "/v1/classify?ip="+flipped)
					var out ClassifyResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						t.Error(err)
						return
					}
					label = out.Known
				} else {
					rec = serve(gate, "/v1/sender?ip="+flipped)
					var out SenderResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						t.Error(err)
						return
					}
					label = out.Class
				}
				if v := rec.Header().Get("X-DarkVec-Model-Version"); label != want[v] {
					t.Errorf("generation %q answered with label %q", v, label)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { clients.Wait(); close(done) }()
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
			gate.Set(gens[[]string{"gB", "gA"}[i%2]])
			runtime.Gosched()
		}
	}
}
