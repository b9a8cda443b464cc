package knn

import (
	"math"
	"testing"

	"github.com/darkvec/darkvec/internal/embed"
)

// clusteredSpace builds two tight clusters around orthogonal axes plus one
// outlier, with the given labels.
func clusteredSpace(t *testing.T) (*embed.Space, map[string]string) {
	t.Helper()
	words := []string{"a1", "a2", "a3", "b1", "b2", "b3", "u1"}
	vecs := [][]float32{
		{1, 0.01}, {1, 0.02}, {1, -0.01},
		{0.01, 1}, {0.02, 1}, {-0.01, 1},
		{-1, -1},
	}
	s, err := embed.New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{
		"a1": "alpha", "a2": "alpha", "a3": "alpha",
		"b1": "beta", "b2": "beta", "b3": "beta",
		"u1": "unknown",
	}
	return s, labels
}

func TestClassifyRecoversClusters(t *testing.T) {
	s, labels := clusteredSpace(t)
	preds := Classify(s, labels, 2)
	if len(preds) != 7 {
		t.Fatalf("predictions = %d", len(preds))
	}
	for _, p := range preds {
		if p.Word == "u1" {
			continue
		}
		if p.Label != p.Truth {
			t.Errorf("%s predicted %s, want %s", p.Word, p.Label, p.Truth)
		}
		if p.AvgSim <= 0.9 {
			t.Errorf("%s avg similarity %.3f suspiciously low", p.Word, p.AvgSim)
		}
	}
}

func TestClassifySkipsUnlabeledButUsesThemAsSpace(t *testing.T) {
	s, labels := clusteredSpace(t)
	delete(labels, "a3") // unlabeled: no prediction, no vote
	preds := Classify(s, labels, 2)
	for _, p := range preds {
		if p.Word == "a3" {
			t.Fatal("unlabeled word must not be classified")
		}
	}
	if len(preds) != 6 {
		t.Fatalf("predictions = %d", len(preds))
	}
	// a1 must still be classified correctly by fetching extra neighbours
	// past the unlabeled a3.
	for _, p := range preds {
		if p.Word == "a1" && p.Label != "alpha" {
			t.Fatalf("a1 → %s", p.Label)
		}
	}
}

func TestMajorityVote(t *testing.T) {
	// One alpha point surrounded by two betas at k=3 must flip to beta.
	words := []string{"x", "b1", "b2", "a1"}
	vecs := [][]float32{{1, 0}, {0.99, 0.1}, {0.99, -0.1}, {0.9, 0.4}}
	s, err := embed.New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{"x": "alpha", "b1": "beta", "b2": "beta", "a1": "alpha"}
	preds := Classify(s, labels, 3)
	for _, p := range preds {
		if p.Word == "x" {
			if p.Label != "beta" {
				t.Fatalf("x → %s, want beta (majority)", p.Label)
			}
			if p.Support != 2 {
				t.Fatalf("support = %d", p.Support)
			}
		}
	}
}

func TestVoteTieBreaksBySimilarity(t *testing.T) {
	// k=2 with one vote each: the closer neighbour's class must win.
	words := []string{"x", "near", "far"}
	vecs := [][]float32{{1, 0}, {0.999, 0.04}, {0.9, 0.44}}
	s, err := embed.New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{"x": "whatever", "near": "N", "far": "F"}
	preds := Classify(s, labels, 2)
	for _, p := range preds {
		if p.Word == "x" && p.Label != "N" {
			t.Fatalf("tie should break to nearer class, got %s", p.Label)
		}
	}
}

func TestEvaluateReport(t *testing.T) {
	s, labels := clusteredSpace(t)
	rep := Evaluate(s, labels, 2, "unknown")
	if math.Abs(rep.Accuracy-1) > 1e-9 {
		t.Fatalf("accuracy = %v", rep.Accuracy)
	}
	alpha := rep.Class("alpha")
	if alpha.Support != 3 || alpha.Recall != 1 {
		t.Fatalf("alpha = %+v", alpha)
	}
	u := rep.Class("unknown")
	if !math.IsNaN(u.Precision) {
		t.Fatal("unknown precision must be excluded")
	}
}

func TestExtendGroundTruth(t *testing.T) {
	preds := []Prediction{
		// True members of class A define the distance ceiling: max avg
		// distance = 1 - 0.90 = 0.10.
		{Word: "m1", Truth: "A", Label: "A", AvgSim: 0.95},
		{Word: "m2", Truth: "A", Label: "A", AvgSim: 0.90},
		// Unknown predicted A within the ceiling → promoted.
		{Word: "u1", Truth: "unknown", Label: "A", AvgSim: 0.92},
		// Unknown predicted A beyond the ceiling → rejected.
		{Word: "u2", Truth: "unknown", Label: "A", AvgSim: 0.80},
		// Unknown predicted unknown → ignored.
		{Word: "u3", Truth: "unknown", Label: "unknown", AvgSim: 0.99},
		// Unknown predicted into a class with no true members → ignored.
		{Word: "u4", Truth: "unknown", Label: "B", AvgSim: 0.99},
		// Misclassified true member must not define B's ceiling.
		{Word: "m3", Truth: "A", Label: "B", AvgSim: 0.85},
	}
	ext := ExtendGroundTruth(preds, "unknown")
	if len(ext) != 1 {
		t.Fatalf("extended classes = %v", ext)
	}
	got := ext["A"]
	if len(got) != 1 || got[0].Word != "u1" {
		t.Fatalf("extended A = %+v", got)
	}
}

func TestExtendGroundTruthOrdering(t *testing.T) {
	preds := []Prediction{
		{Word: "m", Truth: "A", Label: "A", AvgSim: 0.5},
		{Word: "u1", Truth: "unknown", Label: "A", AvgSim: 0.7},
		{Word: "u2", Truth: "unknown", Label: "A", AvgSim: 0.9},
	}
	ext := ExtendGroundTruth(preds, "unknown")
	a := ext["A"]
	if len(a) != 2 || a[0].Word != "u2" || a[1].Word != "u1" {
		t.Fatalf("ordering = %+v", a)
	}
}

func TestClassifyOne(t *testing.T) {
	s, labels := clusteredSpace(t)
	p, ok := NewClassifier(s, nil, labels).One("a1", 2)
	if !ok {
		t.Fatal("a1 must be classifiable")
	}
	if p.Label != "alpha" || p.Truth != "alpha" {
		t.Fatalf("prediction = %+v", p)
	}
	if _, ok := NewClassifier(s, nil, labels).One("nope", 2); ok {
		t.Fatal("unknown word must report absence")
	}
	// Consistency with the batch path.
	batch := Classify(s, labels, 2)
	for _, bp := range batch {
		one, ok := NewClassifier(s, nil, labels).One(bp.Word, 2)
		if !ok || one.Label != bp.Label {
			t.Fatalf("batch/one mismatch for %s: %s vs %s", bp.Word, bp.Label, one.Label)
		}
	}
}

func TestClassifyOneSkipsUnlabeledNeighbours(t *testing.T) {
	s, labels := clusteredSpace(t)
	delete(labels, "a2") // unlabeled neighbour must not vote
	p, ok := NewClassifier(s, nil, labels).One("a1", 2)
	if !ok || p.Label != "alpha" {
		t.Fatalf("prediction = %+v (ok=%v)", p, ok)
	}
}
