package knn

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/darkvec/darkvec/internal/embed"
)

// The per-call implementation the Classifier replaced, kept as the
// reference the equivalence tests compare against: it resolves the label
// table on every call and reaches the engines only through the batched
// candidate-list search below.

// subsetEach is the candidate-list search the reference was written
// against: the candidates as a mask, and no call at all when there are
// none.
func subsetEach(search func([]int, int, []bool, func(int, []embed.Neighbor)), n int, queries, candidates []int, k int, fn func(qi int, nn []embed.Neighbor)) {
	if len(candidates) == 0 {
		return
	}
	mask := make([]bool, n)
	for _, r := range candidates {
		mask[r] = true
	}
	search(queries, k, mask, fn)
}

func refLabelRows(s *embed.Space, labels map[string]string) ([]string, []int) {
	rowLabel := make([]string, s.Len())
	labeled := make([]int, 0, s.Len())
	for i, w := range s.Words {
		if l := labels[w]; l != "" {
			rowLabel[i] = l
			labeled = append(labeled, i)
		}
	}
	return rowLabel, labeled
}

func refClassify(s *embed.Space, ix *embed.IVF, labels map[string]string, k int) []Prediction {
	rowLabel, labeled := refLabelRows(s, labels)
	if len(labeled) == 0 || k <= 0 {
		return nil
	}
	preds := make([]Prediction, len(labeled))
	voteAt := func(qi int, nn []embed.Neighbor) {
		t := tallyPool.Get().(*tally)
		preds[qi] = vote(s.Words[labeled[qi]], rowLabel[labeled[qi]], nn, rowLabel, t)
		tallyPool.Put(t)
	}
	if ix == nil {
		subsetEach(s.Search, s.Len(), labeled, labeled, k, voteAt)
		return preds
	}
	missed := make([]bool, len(labeled))
	subsetEach(ix.Search, s.Len(), labeled, labeled, k, func(qi int, nn []embed.Neighbor) {
		if len(nn) == 0 {
			missed[qi] = true
			return
		}
		voteAt(qi, nn)
	})
	var rerun, rerunQI []int
	for qi, m := range missed {
		if m {
			rerun = append(rerun, labeled[qi])
			rerunQI = append(rerunQI, qi)
		}
	}
	if len(rerun) > 0 {
		subsetEach(s.Search, s.Len(), rerun, labeled, k, func(ri int, nn []embed.Neighbor) { voteAt(rerunQI[ri], nn) })
	}
	return preds
}

// refClassifyOne also reports whether the index probe came back empty and
// the exact engine answered instead.
func refClassifyOne(s *embed.Space, ix *embed.IVF, labels map[string]string, word string, k int) (p Prediction, fellBack, ok bool) {
	i, ok := s.Index(word)
	if !ok {
		return Prediction{}, false, false
	}
	rowLabel, labeled := refLabelRows(s, labels)
	var t tally
	p = vote(word, labels[word], nil, rowLabel, &t)
	voted := false
	if ix != nil {
		subsetEach(ix.Search, s.Len(), []int{i}, labeled, k, func(_ int, nn []embed.Neighbor) {
			if len(nn) == 0 {
				fellBack = true
				return
			}
			p = vote(word, labels[word], nn, rowLabel, &t)
			voted = true
		})
	}
	if !voted {
		subsetEach(s.Search, s.Len(), []int{i}, labeled, k, func(_ int, nn []embed.Neighbor) {
			p = vote(word, labels[word], nn, rowLabel, &t)
		})
	}
	return p, fellBack, true
}

// relabel keeps the labels of the rows keep admits.
func relabel(s *embed.Space, labels map[string]string, keep func(row int) bool) map[string]string {
	out := map[string]string{}
	for i, w := range s.Words {
		if l := labels[w]; l != "" && keep(i) {
			out[w] = l
		}
	}
	return out
}

// TestClassifierMatchesPerCallReference walks engines × label coverage ×
// spaces × k and demands field-for-field equality with the reference for
// every word (plus one outside the space), the same fallback count, and All
// byte-identical at any MaxProcs.
func TestClassifierMatchesPerCallReference(t *testing.T) {
	type fixture struct {
		name   string
		s      *embed.Space
		labels map[string]string
	}
	big, bigLabels := bigClusteredSpace(t, 600, 41)
	ties, tieLabels := tieHeavySpace(t, 120, 5, 77)
	one, err := embed.New([]string{"solo"}, [][]float32{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []fixture{
		{"clustered", big, bigLabels},
		{"ties", ties, tieLabels},
		{"one-row", one, map[string]string{"solo": "alpha"}},
	}
	engines := []struct {
		name string
		opts *embed.IVFOptions // nil: exact
	}{
		{"exact", nil},
		{"ivf", &embed.IVFOptions{Seed: 5}},
		// Far more cells than labeled rows and one probe: the empty-probe
		// fallback fires constantly on the sparse coverage below.
		{"ivf-1probe", &embed.IVFOptions{Seed: 5, Cells: 60, NProbe: 1}},
	}
	for _, fx := range fixtures {
		s := fx.s
		full := relabel(s, fx.labels, func(int) bool { return true })
		for i, w := range s.Words { // fixtures leave some rows unlabeled; fill them
			if full[w] == "" {
				full[w] = fmt.Sprintf("fill%d", i%3)
			}
		}
		coverages := []struct {
			name   string
			labels map[string]string
		}{
			{"all-labeled", full},
			{"every-7th-unlabeled", relabel(s, full, func(r int) bool { return r%7 != 0 })},
			{"sparse", relabel(s, full, func(r int) bool { return r%29 == 3 })},
			{"unlabeled", map[string]string{}},
		}
		for _, eng := range engines {
			var ix *embed.IVF
			if eng.opts != nil {
				if ix, err = s.BuildIVF(*eng.opts); err != nil {
					t.Fatal(err)
				}
			}
			for _, cov := range coverages {
				name := fx.name + "/" + eng.name + "/" + cov.name
				c := NewClassifier(s, ix, cov.labels)
				if (c.mask == nil) != (len(c.labeled) == s.Len()) {
					t.Fatalf("%s: mask nil = %v with %d of %d rows labeled", name, c.mask == nil, len(c.labeled), s.Len())
				}
				for row := range s.Words {
					if got, want := c.Class(row), cov.labels[s.Words[row]]; got != want {
						t.Fatalf("%s: Class(%d) = %q, want %q", name, row, got, want)
					}
				}
				for _, k := range []int{-1, 0, 1, 7} {
					var wantFallbacks int64
					before := c.ExactFallbacks()
					for _, w := range append([]string{"not-in-space"}, s.Words...) {
						want, fellBack, wantOK := refClassifyOne(s, ix, cov.labels, w, k)
						if fellBack {
							wantFallbacks++
						}
						got, ok := c.One(w, k)
						if ok != wantOK || got != want {
							t.Fatalf("%s k=%d: One(%s) = %+v, %v; reference %+v, %v", name, k, w, got, ok, want, wantOK)
						}
						if adapted, aok := ClassifyOneIndexed(s, ix, cov.labels, w, k); aok != wantOK || adapted != want {
							t.Fatalf("%s k=%d: ClassifyOneIndexed(%s) = %+v, %v; reference %+v, %v", name, k, w, adapted, aok, want, wantOK)
						}
					}
					if got := c.ExactFallbacks() - before; got != wantFallbacks {
						t.Fatalf("%s k=%d: %d exact fallbacks counted, reference took %d", name, k, got, wantFallbacks)
					}
					want := refClassify(s, ix, cov.labels, k)
					// Serial, GOMAXPROCS (which may auto-serialise a small
					// batch), and a fan-out forced past that cutoff.
					for _, procs := range []int{1, 0, 4} {
						s.MaxProcs = procs
						if got := c.All(k); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s k=%d MaxProcs=%d: All diverged from the reference", name, k, procs)
						}
					}
					s.MaxProcs = 0
				}
			}
		}
	}
	s, labels := bigClusteredSpace(t, 300, 3)
	if !reflect.DeepEqual(Classify(s, labels, 5), refClassify(s, nil, labels, 5)) {
		t.Fatal("Classify diverged from the reference")
	}
}

// TestClassifierCountsExactFallbacks confines the label set to one cell and
// probes a single cell, so a word filed anywhere else finds no labeled row
// in its probe: it must still get the exact answer, and the classifier must
// count the detour. Calls that cannot vote at all return early, uncounted.
func TestClassifierCountsExactFallbacks(t *testing.T) {
	const per = 30
	var words []string
	var vecs [][]float32
	for i := 0; i < per; i++ { // the near cell, unlabeled
		words = append(words, fmt.Sprintf("near%02d", i))
		vecs = append(vecs, []float32{1, 0.001 * float32(i), 0})
	}
	for i := 0; i < per; i++ { // the far cell, holding every label
		words = append(words, fmt.Sprintf("far%02d", i))
		vecs = append(vecs, []float32{0, 0.001 * float32(i), 1})
	}
	s, err := embed.New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{}
	for _, w := range words[per:] {
		labels[w] = "far"
	}
	ix, err := s.BuildIVF(embed.IVFOptions{Cells: 2, NProbe: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClassifier(s, ix, labels)

	p, ok := c.One("near00", 3)
	if !ok || p.Label != "far" || p.Support != 3 {
		t.Fatalf("One(near00) = %+v, %v; want the exact vote of three far rows", p, ok)
	}
	if got := c.ExactFallbacks(); got != 1 {
		t.Fatalf("fallbacks after a forced detour = %d, want 1", got)
	}
	if p, _ := c.One("far00", 3); p.Label != "far" {
		t.Fatalf("One(far00) = %+v", p)
	}
	if got := c.ExactFallbacks(); got != 1 {
		t.Fatalf("a probe that found labeled rows was counted: %d", got)
	}

	if p, ok := c.One("near00", 0); !ok || p.Support != -1 {
		t.Fatalf("k=0: %+v, %v", p, ok)
	}
	if preds := c.All(0); preds != nil {
		t.Fatalf("k=0: All = %+v", preds)
	}
	empty := NewClassifier(s, ix, nil)
	if p, ok := empty.One("near00", 3); !ok || p.Support != -1 || empty.All(3) != nil {
		t.Fatalf("empty label set: %+v, %v", p, ok)
	}
	if c.ExactFallbacks() != 1 || empty.ExactFallbacks() != 0 {
		t.Fatalf("early returns were counted: %d, %d", c.ExactFallbacks(), empty.ExactFallbacks())
	}
}
