package knn

import (
	"fmt"
	"sort"
	"testing"

	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/netutil"
)

// voteRef is the retired map-based tally, kept as the semantic reference for
// the slice-based one: count and summed similarity per class in two maps,
// winner chosen by scanning classes in lexicographic order with strict
// improvement — majority count, then summed similarity, then the
// lexicographically smallest class.
func voteRef(word, truth string, votes []embed.Neighbor, rowLabel []string) Prediction {
	counts := map[string]int{}
	sims := map[string]float64{}
	var total float64
	for _, v := range votes {
		c := rowLabel[v.Row]
		counts[c]++
		sims[c] += v.Sim
		total += v.Sim
	}
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	best, bestN, bestSim := "", -1, 0.0
	for _, c := range classes {
		if n, sim := counts[c], sims[c]; n > bestN || (n == bestN && sim > bestSim) {
			best, bestN, bestSim = c, n, sim
		}
	}
	p := Prediction{Word: word, Truth: truth, Label: best, Support: bestN}
	if len(votes) > 0 {
		p.AvgSim = total / float64(len(votes))
	}
	return p
}

// TestVoteMatchesMapReference fuzzes the slice tally against the map-based
// reference. Similarities are drawn from a tiny discrete set and the label
// pool is small, so count ties, summed-similarity ties, and full three-way
// ties all occur constantly.
func TestVoteMatchesMapReference(t *testing.T) {
	r := netutil.NewRand(99)
	labels := []string{"alpha", "beta", "gamma", "delta", "unknown"}
	simLevels := []float64{0.25, 0.5, 0.75, 1.0}
	rowLabel := make([]string, 64)
	for i := range rowLabel {
		rowLabel[i] = labels[int(r.Uint32())%len(labels)]
	}
	var tl tally
	for trial := 0; trial < 5000; trial++ {
		k := 1 + int(r.Uint32())%12
		votes := make([]embed.Neighbor, k)
		for i := range votes {
			votes[i] = embed.Neighbor{
				Row: int(r.Uint32()) % len(rowLabel),
				Sim: simLevels[int(r.Uint32())%len(simLevels)],
			}
		}
		got := vote("w", "t", votes, rowLabel, &tl)
		want := voteRef("w", "t", votes, rowLabel)
		if got != want {
			t.Fatalf("trial %d: vote = %+v, reference = %+v (votes %+v)", trial, got, want, votes)
		}
	}
	// Empty vote set: both must report the absence sentinel.
	got, want := vote("w", "t", nil, rowLabel, &tl), voteRef("w", "t", nil, rowLabel)
	if got != want || got.Support != -1 {
		t.Fatalf("empty votes: %+v vs %+v", got, want)
	}
}

// tieHeavySpace builds a labeled space with groups of duplicated vectors so
// that classification constantly hits exact cosine ties.
func tieHeavySpace(t *testing.T, n, dim int, seed uint64) (*embed.Space, map[string]string) {
	t.Helper()
	r := netutil.NewRand(seed)
	classes := []string{"alpha", "beta", "gamma", "unknown"}
	words := make([]string, n)
	vecs := make([][]float32, n)
	labels := map[string]string{}
	for i := range vecs {
		words[i] = fmt.Sprintf("w%03d", i)
		v := make([]float32, dim)
		if i%3 != 0 && i > 0 {
			copy(v, vecs[i-1])
		} else {
			for d := range v {
				v[d] = float32(r.NormFloat64())
			}
		}
		vecs[i] = v
		if i%5 != 4 { // every fifth word stays unlabeled
			labels[words[i]] = classes[int(r.Uint32())%len(classes)]
		}
	}
	s, err := embed.New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s, labels
}

// TestClassifySerialParallelIdentical asserts the classifier's determinism
// contract: predictions with MaxProcs=1 are byte-identical to every parallel
// worker count, including on a space full of exact similarity ties.
func TestClassifySerialParallelIdentical(t *testing.T) {
	s, labels := tieHeavySpace(t, 80, 5, 31)
	for _, k := range []int{1, 4, 9} {
		s.MaxProcs = 1
		serial := Classify(s, labels, k)
		for _, workers := range []int{2, 4, 8} {
			s.MaxProcs = workers
			par := Classify(s, labels, k)
			if len(par) != len(serial) {
				t.Fatalf("k=%d workers=%d: %d vs %d predictions", k, workers, len(par), len(serial))
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("k=%d workers=%d prediction %d: %+v vs %+v",
						k, workers, i, par[i], serial[i])
				}
			}
		}
		s.MaxProcs = 0
	}
}

// TestClassifyOneMatchesBatchOnTies pins the single-word path to the batch
// path on the tie-heavy space.
func TestClassifyOneMatchesBatchOnTies(t *testing.T) {
	s, labels := tieHeavySpace(t, 40, 4, 63)
	batch := Classify(s, labels, 5)
	for _, bp := range batch {
		one, ok := NewClassifier(s, nil, labels).One(bp.Word, 5)
		if !ok || one != bp {
			t.Fatalf("%s: one=%+v batch=%+v", bp.Word, one, bp)
		}
	}
}
