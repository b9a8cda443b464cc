package apiserver

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/w2v"
)

// TestModelExact: a server over a plain space reports exact mode, the space
// geometry, and no index block.
func TestModelExact(t *testing.T) {
	srv, _ := server(t)
	var out ModelResponse
	getJSON(t, srv.URL+"/v1/model", http.StatusOK, &out)
	if out.KNNMode != "exact" {
		t.Fatalf("knn_mode = %q, want exact", out.KNNMode)
	}
	if out.Index != nil {
		t.Fatalf("unexpected index block: %+v", out.Index)
	}
	if out.Senders <= 0 || out.Dim != 16 {
		t.Fatalf("senders=%d dim=%d", out.Senders, out.Dim)
	}
	if out.VectorBytes != int64(out.Senders*out.Dim*4) {
		t.Fatalf("vector_bytes = %d", out.VectorBytes)
	}
}

// annServer builds a server whose space carries an IVF index, answering the
// tentpole's serving-side contract: /v1/model reports mode ivf + stats, and
// /v1/similar + /v1/classify ride the index.
func annServer(t *testing.T, annErr string, build bool) (*Server, *embed.Space) {
	t.Helper()
	out := darksim.Generate(darksim.Config{Seed: 9, Days: 4, Scale: 0.01, Rate: 0.05})
	cfg := core.DefaultConfig()
	cfg.W2V = w2v.Config{Dim: 16, Window: 8, Epochs: 2, Seed: 1, ShrinkWindow: true, PadToken: "NULL"}
	emb, err := core.TrainEmbedding(out.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	space, _ := emb.EvalSpace(out.Trace.LastDays(1), nil)
	if build {
		if _, err := space.BuildIVF(embed.IVFOptions{Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	gt := labels.Build(out.Trace, out.Feeds)
	return New(Config{Space: space, GT: gt, Trace: out.Trace, Seed: 1, ANNError: annErr, ModelVersion: "g42"}), space
}

func TestModelWithIndex(t *testing.T) {
	s, space := annServer(t, "", true)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var out ModelResponse
	getJSON(t, srv.URL+"/v1/model", http.StatusOK, &out)
	if out.KNNMode != "ivf" {
		t.Fatalf("knn_mode = %q, want ivf", out.KNNMode)
	}
	if out.Index == nil || out.Index.Rows != space.Len() || out.Index.Cells == 0 || out.Index.NProbe == 0 {
		t.Fatalf("index block = %+v", out.Index)
	}
	if out.Index.CalibratedRecall < out.Index.TargetRecall {
		t.Fatalf("calibrated %.3f below target %.3f", out.Index.CalibratedRecall, out.Index.TargetRecall)
	}
	if out.Version != "g42" || out.ANNError != "" {
		t.Fatalf("version=%q ann_error=%q", out.Version, out.ANNError)
	}

	// Similar and classify keep answering through the index.
	ip := space.Words[0]
	var sim SimilarResponse
	getJSON(t, srv.URL+"/v1/similar?ip="+ip+"&k=5", http.StatusOK, &sim)
	if sim.IP != ip || len(sim.Neighbors) == 0 {
		t.Fatalf("similar over index: %+v", sim)
	}
	var cls ClassifyResponse
	getJSON(t, srv.URL+"/v1/classify?ip="+ip+"&k=5", http.StatusOK, &cls)
	if cls.Class == "" || cls.Support == 0 {
		t.Fatalf("classify over index degenerate: %+v", cls)
	}
}

// TestModelANNError: a failed index build serves exact with the failure
// visible on /v1/model — degradation, never refusal.
func TestModelANNError(t *testing.T) {
	s, space := annServer(t, "ivf build failed: synthetic", false)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var out ModelResponse
	getJSON(t, srv.URL+"/v1/model", http.StatusOK, &out)
	if out.KNNMode != "exact" || out.Index != nil {
		t.Fatalf("degraded server should report exact: %+v", out)
	}
	if out.ANNError != "ivf build failed: synthetic" {
		t.Fatalf("ann_error = %q", out.ANNError)
	}
	// Queries still answer.
	var sim SimilarResponse
	getJSON(t, srv.URL+"/v1/similar?ip="+space.Words[0]+"&k=3", http.StatusOK, &sim)
	if len(sim.Neighbors) == 0 {
		t.Fatal("degraded server refused a similar query")
	}
}
