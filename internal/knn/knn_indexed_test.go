package knn

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/netutil"
)

// bigClusteredSpace builds a labeled many-cluster space large enough for a
// meaningful IVF index: ten gaussian clusters, with labels on most rows and
// a sprinkle of unlabeled ones.
func bigClusteredSpace(t *testing.T, n int, seed uint64) (*embed.Space, map[string]string) {
	t.Helper()
	r := netutil.NewRand(seed)
	const dim, centers = 16, 10
	base := make([][]float64, centers)
	for c := range base {
		v := make([]float64, dim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		base[c] = v
	}
	words := make([]string, n)
	vecs := make([][]float32, n)
	labels := make(map[string]string, n)
	for i := range vecs {
		words[i] = fmt.Sprintf("s%05d", i)
		c := i % centers
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(base[c][d] + 0.15*r.NormFloat64())
		}
		vecs[i] = v
		if i%7 != 0 { // every 7th row unlabeled: present in the space, no vote
			labels[words[i]] = fmt.Sprintf("class%d", c)
		}
	}
	s, err := embed.New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s, labels
}

// TestClassifyIndexedMatchesExactOracle pins the exact Classify as the
// oracle: with an exhaustive-probe index (every cell scanned) the indexed
// classifier must agree prediction-for-prediction, and with a calibrated
// partial-probe index the label agreement must stay near-total.
func TestClassifyIndexedMatchesExactOracle(t *testing.T) {
	s, labels := bigClusteredSpace(t, 800, 19)
	oracle := Classify(s, labels, 5)

	// Exhaustive probe: byte-identical to the oracle.
	ix, err := s.BuildIVF(embed.IVFOptions{Cells: 12, NProbe: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := NewClassifier(s, ix, labels).All(5)
	if !reflect.DeepEqual(oracle, got) {
		t.Fatal("exhaustive-probe indexed All diverged from the exact oracle")
	}

	// Calibrated partial probe: near-total label agreement.
	ix2, err := s.BuildIVF(embed.IVFOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got2 := NewClassifier(s, ix2, labels).All(5)
	if len(got2) != len(oracle) {
		t.Fatalf("prediction count %d vs %d", len(got2), len(oracle))
	}
	agree := 0
	for i := range oracle {
		if oracle[i].Word != got2[i].Word {
			t.Fatalf("prediction order diverged at %d: %s vs %s", i, oracle[i].Word, got2[i].Word)
		}
		if oracle[i].Label == got2[i].Label {
			agree++
		}
		if got2[i].Support == 0 || got2[i].Label == "" {
			t.Fatalf("%s got a degenerate prediction %+v", got2[i].Word, got2[i])
		}
	}
	if frac := float64(agree) / float64(len(oracle)); frac < 0.98 {
		t.Fatalf("label agreement %.3f below 0.98", frac)
	}
}

// TestClassifyIndexedEmptyVoteFallback forces the sparse regime — far more
// cells than labeled rows with a single probe — so many queries' probed
// cells hold no labeled candidate. The exact-subset fallback must leave no
// degenerate (empty-label, zero-support) prediction behind.
func TestClassifyIndexedEmptyVoteFallback(t *testing.T) {
	s, labels := bigClusteredSpace(t, 400, 23)
	// Keep labels on only 20 rows: most probes find no labeled candidate.
	sparse := make(map[string]string)
	kept := 0
	for _, w := range s.Words {
		if l := labels[w]; l != "" && kept < 20 {
			sparse[w] = l
			kept++
		}
	}
	ix, err := s.BuildIVF(embed.IVFOptions{Cells: 80, NProbe: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	preds := NewClassifier(s, ix, sparse).All(3)
	if len(preds) != kept {
		t.Fatalf("predictions = %d, want %d", len(preds), kept)
	}
	for _, p := range preds {
		if p.Label == "" || p.Support == 0 {
			t.Fatalf("%s left degenerate after fallback: %+v", p.Word, p)
		}
	}
	// ClassifyOneIndexed takes the same fallback for a word whose probed
	// cell holds no labeled row.
	for _, w := range s.Words[:40] {
		p, ok := ClassifyOneIndexed(s, ix, sparse, w, 3)
		if !ok {
			t.Fatalf("%s not found", w)
		}
		if p.Label == "" || p.Support == 0 {
			t.Fatalf("ClassifyOneIndexed(%s) degenerate: %+v", w, p)
		}
	}
}

// TestClassifyOneIndexedMatchesIndexedBatch: the single-word path agrees
// with the batch path for labeled words (both are LOO-consistent).
func TestClassifyOneIndexedMatchesIndexedBatch(t *testing.T) {
	s, labels := bigClusteredSpace(t, 500, 31)
	ix, err := s.BuildIVF(embed.IVFOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	preds := NewClassifier(s, ix, labels).All(5)
	for _, want := range preds[:25] {
		got, ok := ClassifyOneIndexed(s, ix, labels, want.Word, 5)
		if !ok {
			t.Fatalf("%s not found", want.Word)
		}
		if got != want {
			t.Fatalf("ClassifyOneIndexed(%s) = %+v, batch %+v", want.Word, got, want)
		}
	}
}
