package embed

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/w2v"
)

func space(t *testing.T, words []string, vecs [][]float32) *Space {
	t.Helper()
	s, err := New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewNormalises(t *testing.T) {
	s := space(t, []string{"x", "y"}, [][]float32{{3, 4}, {0, 2}})
	r := s.Row(0)
	if math.Abs(float64(r[0])-0.6) > 1e-6 || math.Abs(float64(r[1])-0.8) > 1e-6 {
		t.Fatalf("row 0 = %v", r)
	}
	if got := s.Cosine(0, 0); math.Abs(got-1) > 1e-6 {
		t.Fatalf("self cosine = %v", got)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New([]string{"a"}, nil); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := New([]string{"a", "b"}, [][]float32{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged vectors must fail")
	}
	s, err := New(nil, nil)
	if err != nil || s.Len() != 0 {
		t.Fatal("empty space must be fine")
	}
}

func TestZeroVectorSurvives(t *testing.T) {
	s := space(t, []string{"z", "a"}, [][]float32{{0, 0}, {1, 0}})
	if got := s.Cosine(0, 1); got != 0 {
		t.Fatalf("zero vector cosine = %v", got)
	}
}

func TestIndex(t *testing.T) {
	s := space(t, []string{"a", "b"}, [][]float32{{1, 0}, {0, 1}})
	if i, ok := s.Index("b"); !ok || i != 1 {
		t.Fatalf("Index(b) = %d,%v", i, ok)
	}
	if _, ok := s.Index("zzz"); ok {
		t.Fatal("missing word must be absent")
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	f := func(a, b [4]float32) bool {
		for _, v := range append(a[:], b[:]...) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
		}
		s, err := New([]string{"a", "b"}, [][]float32{a[:], b[:]})
		if err != nil {
			return false
		}
		c := s.Cosine(0, 1)
		return c >= -1.0001 && c <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNExactSmallCase(t *testing.T) {
	// Points on the unit circle; neighbours of 0° are 10°, then 40°, 300°...
	angles := []float64{0, 10, 40, 300, 180}
	words := []string{"p0", "p1", "p2", "p3", "p4"}
	vecs := make([][]float32, len(angles))
	for i, deg := range angles {
		rad := deg * math.Pi / 180
		vecs[i] = []float32{float32(math.Cos(rad)), float32(math.Sin(rad))}
	}
	s := space(t, words, vecs)
	nn := s.KNN(0, 3)
	want := []int{1, 2, 3}
	if len(nn) != 3 {
		t.Fatalf("knn = %+v", nn)
	}
	for i := range want {
		if nn[i].Row != want[i] {
			t.Fatalf("knn order = %+v, want rows %v", nn, want)
		}
	}
	// Similarities decrease.
	for i := 1; i < len(nn); i++ {
		if nn[i].Sim > nn[i-1].Sim {
			t.Fatal("similarities must be sorted decreasing")
		}
	}
}

func TestKNNExcludesSelf(t *testing.T) {
	s := space(t, []string{"a", "b", "c"}, [][]float32{{1, 0}, {1, 0}, {0, 1}})
	for i := 0; i < 3; i++ {
		for _, n := range s.KNN(i, 2) {
			if n.Row == i {
				t.Fatalf("row %d returned itself", i)
			}
		}
	}
}

func TestKNNVersusBruteForceProperty(t *testing.T) {
	r := netutil.NewRand(77)
	const n, dim, k = 40, 6, 5
	words := make([]string, n)
	vecs := make([][]float32, n)
	for i := range vecs {
		words[i] = string(rune('A' + i))
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(r.NormFloat64())
		}
		vecs[i] = v
	}
	s := space(t, words, vecs)
	for i := 0; i < n; i++ {
		nn := s.KNN(i, k)
		// Brute force.
		type pair struct {
			row int
			sim float64
		}
		var all []pair
		for j := 0; j < n; j++ {
			if j != i {
				all = append(all, pair{j, s.Cosine(i, j)})
			}
		}
		for a := 0; a < len(all); a++ {
			for b := a + 1; b < len(all); b++ {
				if all[b].sim > all[a].sim || (all[b].sim == all[a].sim && all[b].row < all[a].row) {
					all[a], all[b] = all[b], all[a]
				}
			}
		}
		for x := 0; x < k; x++ {
			if nn[x].Row != all[x].row {
				t.Fatalf("row %d: knn[%d] = %d (%.6f), brute = %d (%.6f)",
					i, x, nn[x].Row, nn[x].Sim, all[x].row, all[x].sim)
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	s := space(t, []string{"a"}, [][]float32{{1}})
	if nn := s.KNN(0, 5); nn != nil {
		t.Fatalf("singleton space knn = %v", nn)
	}
	s2 := space(t, []string{"a", "b"}, [][]float32{{1, 0}, {0, 1}})
	if nn := s2.KNN(0, 10); len(nn) != 1 {
		t.Fatalf("k > n: %v", nn)
	}
	if nn := s2.KNN(0, 0); nn != nil {
		t.Fatalf("k=0 must return nil, got %v", nn)
	}
}

func TestAllKNN(t *testing.T) {
	s := space(t, []string{"a", "b", "c"}, [][]float32{{1, 0}, {0.9, 0.1}, {0, 1}})
	all := s.AllKNN(1)
	if len(all) != 3 {
		t.Fatalf("allknn rows = %d", len(all))
	}
	if all[0][0].Row != 1 || all[1][0].Row != 0 {
		t.Fatalf("allknn = %+v", all)
	}
}

func TestFromModel(t *testing.T) {
	enc := w2v.Encoded{ // {a b a c} {b c a}
		Sequences: [][]int32{{0, 1, 0, 2}, {1, 2, 0}},
		Words:     []string{"a", "b", "c"},
		Counts:    []int64{3, 2, 2},
	}
	m, err := w2v.TrainEncodedWithOptions(enc, w2v.Config{Dim: 8, Window: 2, Epochs: 2, Seed: 1, PadToken: "NULL"}, w2v.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := FromModel(m, nil)
	if s.Len() != 3 {
		t.Fatalf("space must drop the pad token: %v", s.Words)
	}
	for i := range s.Words {
		var norm float64
		for _, v := range s.Row(i) {
			norm += float64(v) * float64(v)
		}
		if math.Abs(norm-1) > 1e-5 {
			t.Fatalf("row %d norm = %v", i, norm)
		}
	}
	// keep filter.
	s2 := FromModel(m, map[string]bool{"a": true})
	if s2.Len() != 1 || s2.Words[0] != "a" {
		t.Fatalf("keep filter: %v", s2.Words)
	}
}

func TestMostSimilar(t *testing.T) {
	s := space(t, []string{"a", "b", "c"}, [][]float32{{1, 0}, {0.95, 0.1}, {0, 1}})
	sims, ok := s.MostSimilar("a", 2)
	if !ok || len(sims) != 2 {
		t.Fatalf("MostSimilar = %v, %v", sims, ok)
	}
	if sims[0].Word != "b" || sims[1].Word != "c" {
		t.Fatalf("order = %v", sims)
	}
	if sims[0].Sim < sims[1].Sim {
		t.Fatal("similarities must decrease")
	}
	if _, ok := s.MostSimilar("zzz", 2); ok {
		t.Fatal("unknown word must report absence")
	}
}

// TestAllKNNMaxProcsMatchesSequential pins a worker count through
// Space.MaxProcs — the one way to do so — on a batch far below the
// auto-serial cutoff, and compares against the serial answer.
func TestAllKNNMaxProcsMatchesSequential(t *testing.T) {
	r := netutil.NewRand(55)
	const n, dim = 60, 5
	words := make([]string, n)
	vecs := make([][]float32, n)
	for i := range vecs {
		words[i] = netutil.IPv4(r.Uint32()).String()
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(r.NormFloat64())
		}
		vecs[i] = v
	}
	s := space(t, words, vecs)
	s.MaxProcs = 1
	seq := s.AllKNN(4)
	s.MaxProcs = 4
	par := s.AllKNN(4)
	if len(seq) != len(par) {
		t.Fatal("length mismatch")
	}
	for i := range seq {
		if len(seq[i]) != len(par[i]) {
			t.Fatalf("row %d: %d vs %d neighbours", i, len(seq[i]), len(par[i]))
		}
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("row %d neighbour %d: %+v vs %+v", i, j, seq[i][j], par[i][j])
			}
		}
	}
}
