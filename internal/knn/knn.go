// Package knn implements the semi-supervised stage of DarkVec (§6): a
// k-nearest-neighbour classifier over an embedding space with cosine
// similarity, majority voting, and the Leave-One-Out evaluation protocol the
// paper uses for Tables 3, 4 and 6 and Figures 6–8.
//
// The one implementation is Classifier: a label table resolved against one
// space (and, optionally, its approximate index) once, then asked as often
// as needed. All is the Leave-One-Out pass — one labeled-neighbour-aware
// selection over the space (top-k labeled neighbours selected directly, no
// rescan-and-filter), voting fanned out across the space's Parallelism()
// workers, byte-identical at any worker count. One is the serving question,
// a single sender, and costs its neighbour search and nothing that grows
// with the space. Both share the vote, the (similarity desc, row asc)
// tie-break, and the rule that a query the index could find no labeled
// neighbour for is answered by the exact engine. Classify and
// ClassifyOneIndexed are adapters for callers that hold a label map and ask
// once.
package knn

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/metrics"
)

// Prediction is the classification outcome for one word.
type Prediction struct {
	Word    string
	Truth   string
	Label   string  // predicted class
	AvgSim  float64 // mean cosine similarity to the k neighbours
	Support int     // votes received by the winning class
}

// Classifier is a label table resolved against one space once: row → class,
// the ascending labeled rows, and their bitmap. It is immutable after
// NewClassifier and safe for concurrent use, so a server builds one per
// model generation and a query costs the neighbour search alone — nothing
// that grows with the space is rebuilt or allocated per call.
type Classifier struct {
	s        *embed.Space
	ix       *embed.IVF // nil: exact search
	rowLabel []string   // "" for an unlabeled row
	labeled  []int      // ascending
	mask     []bool     // labeled-row bitmap; nil when every row is labeled

	fallbacks atomic.Int64
}

// NewClassifier resolves labels (word → class, including the catch-all
// Unknown class, which votes like any other) against s. Words in the space
// but absent from labels neither vote nor get classified by All. A non-nil
// ix routes the neighbour search through the approximate index; a query
// whose probed cells hold no labeled row is re-run through the exact engine,
// so the index never costs a word its vote.
func NewClassifier(s *embed.Space, ix *embed.IVF, labels map[string]string) *Classifier {
	c := &Classifier{
		s: s, ix: ix,
		rowLabel: make([]string, s.Len()),
		labeled:  make([]int, 0, s.Len()),
	}
	for i, w := range s.Words {
		if l := labels[w]; l != "" {
			c.rowLabel[i] = l
			c.labeled = append(c.labeled, i)
		}
	}
	if len(c.labeled) < s.Len() {
		c.mask = make([]bool, s.Len())
		for _, r := range c.labeled {
			c.mask[r] = true
		}
	}
	return c
}

// Class returns the label of a row, "" when it has none.
func (c *Classifier) Class(row int) string { return c.rowLabel[row] }

// ExactFallbacks counts the One calls whose index probe found no labeled
// row and were answered by the exact engine instead.
func (c *Classifier) ExactFallbacks() int64 { return c.fallbacks.Load() }

// One predicts the class of a single word by majority vote over its k
// nearest labeled neighbours. The word itself never votes, so the result is
// Leave-One-Out-consistent with All. ok is false when the word is not in
// the space; with k <= 0 or nothing labeled the prediction carries no votes
// (Support -1).
func (c *Classifier) One(word string, k int) (Prediction, bool) {
	i, ok := c.s.Index(word)
	if !ok {
		return Prediction{}, false
	}
	if k <= 0 || len(c.labeled) == 0 {
		return c.vote(i, nil), true
	}
	var p Prediction
	voted := false
	q := []int{i}
	if c.ix != nil {
		c.ix.Search(q, k, c.mask, func(_ int, nn []embed.Neighbor) {
			if len(nn) > 0 {
				p, voted = c.vote(i, nn), true
			}
		})
		if !voted {
			c.fallbacks.Add(1)
		}
	}
	if !voted {
		c.s.Search(q, k, c.mask, func(_ int, nn []embed.Neighbor) { p = c.vote(i, nn) })
	}
	return p, true
}

// All predicts the class of every labeled word, Leave-One-Out style, in
// ascending row order. The search fans out across the space's
// Parallelism() workers; output is byte-identical for any worker count.
func (c *Classifier) All(k int) []Prediction {
	if len(c.labeled) == 0 || k <= 0 {
		return nil
	}
	preds := make([]Prediction, len(c.labeled))
	// Search never invokes fn twice for the same qi, and each call only
	// writes preds[qi] or missed[qi], so the concurrent voting is race-free.
	if c.ix == nil {
		c.s.Search(c.labeled, k, c.mask, func(qi int, nn []embed.Neighbor) {
			preds[qi] = c.vote(c.labeled[qi], nn)
		})
		return preds
	}
	missed := make([]bool, len(c.labeled))
	c.ix.Search(c.labeled, k, c.mask, func(qi int, nn []embed.Neighbor) {
		if len(nn) == 0 {
			missed[qi] = true
			return
		}
		preds[qi] = c.vote(c.labeled[qi], nn)
	})
	var rerun, rerunQI []int // rows needing the exact pass, and their positions in preds
	for qi, m := range missed {
		if m {
			rerun = append(rerun, c.labeled[qi])
			rerunQI = append(rerunQI, qi)
		}
	}
	c.s.Search(rerun, k, c.mask, func(ri int, nn []embed.Neighbor) {
		preds[rerunQI[ri]] = c.vote(rerun[ri], nn)
	})
	return preds
}

// vote tallies on pooled scratch: All's callbacks have no worker identity
// and One must not allocate per call.
func (c *Classifier) vote(row int, nn []embed.Neighbor) Prediction {
	t := tallyPool.Get().(*tally)
	p := vote(c.s.Words[row], c.rowLabel[row], nn, c.rowLabel, t)
	tallyPool.Put(t)
	return p
}

// Classify is NewClassifier(s, nil, labels).All(k): the exact Leave-One-Out
// pass the paper's tables and figures are computed with.
func Classify(s *embed.Space, labels map[string]string, k int) []Prediction {
	return NewClassifier(s, nil, labels).All(k)
}

// ClassifyOneIndexed is NewClassifier(s, ix, labels).One(word, k) for
// callers holding a label map and a single question. It resolves the whole
// table per call — anything asking more than once per space should keep the
// Classifier.
func ClassifyOneIndexed(s *embed.Space, ix *embed.IVF, labels map[string]string, word string, k int) (Prediction, bool) {
	if _, ok := s.Index(word); !ok {
		return Prediction{}, false
	}
	return NewClassifier(s, ix, labels).One(word, k)
}

// tally is the reusable slice-based vote accumulator: distinct classes in a
// vote set are bounded by k, so linear scans over parallel slices beat the
// two map allocations per prediction the old implementation paid.
type tally struct {
	classes []string
	counts  []int
	sims    []float64
}

var tallyPool = sync.Pool{New: func() interface{} { return new(tally) }}

func (t *tally) reset() {
	t.classes = t.classes[:0]
	t.counts = t.counts[:0]
	t.sims = t.sims[:0]
}

func (t *tally) add(class string, sim float64) {
	for i, c := range t.classes {
		if c == class {
			t.counts[i]++
			t.sims[i] += sim
			return
		}
	}
	t.classes = append(t.classes, class)
	t.counts = append(t.counts, 1)
	t.sims = append(t.sims, sim)
}

// vote tallies neighbour labels: majority count wins, ties break toward the
// class with the larger summed similarity, then lexicographically.
func vote(word, truth string, votes []embed.Neighbor, rowLabel []string, t *tally) Prediction {
	t.reset()
	var total float64
	for _, v := range votes {
		t.add(rowLabel[v.Row], v.Sim)
		total += v.Sim
	}
	best, bestN, bestSim := "", -1, 0.0
	for i, c := range t.classes {
		n, sim := t.counts[i], t.sims[i]
		if n > bestN || (n == bestN && sim > bestSim) ||
			(n == bestN && sim == bestSim && c < best) {
			best, bestN, bestSim = c, n, sim
		}
	}
	p := Prediction{Word: word, Truth: truth, Label: best, Support: bestN}
	if len(votes) > 0 {
		p.AvgSim = total / float64(len(votes))
	}
	return p
}

// Evaluate runs the exact Leave-One-Out pass and builds the paper-style
// report: accuracy over ground-truth classes only, with the Unknown class
// contributing votes and a recall row but no precision/F-score.
func Evaluate(s *embed.Space, labels map[string]string, k int, unknownLabel string) metrics.Report {
	preds := NewClassifier(s, nil, labels).All(k)
	truth := make([]string, len(preds))
	pred := make([]string, len(preds))
	for i, p := range preds {
		truth[i], pred[i] = p.Truth, p.Label
	}
	return metrics.BuildReport(truth, pred, map[string]bool{unknownLabel: true})
}

// ExtendGroundTruth implements §6.4: among Unknown words predicted as GT
// class c, keep those whose average neighbour distance does not exceed the
// maximum average distance observed for true members of c. Returns the
// promoted words per class, sorted by increasing average distance
// (decreasing similarity).
func ExtendGroundTruth(preds []Prediction, unknownLabel string) map[string][]Prediction {
	// Per-class distance ceiling from true members.
	maxAvgDist := map[string]float64{}
	for _, p := range preds {
		if p.Truth == unknownLabel || p.Truth != p.Label {
			continue
		}
		d := 1 - p.AvgSim
		if d > maxAvgDist[p.Truth] {
			maxAvgDist[p.Truth] = d
		}
	}
	out := map[string][]Prediction{}
	for _, p := range preds {
		if p.Truth != unknownLabel || p.Label == unknownLabel {
			continue
		}
		ceil, ok := maxAvgDist[p.Label]
		if !ok {
			continue
		}
		if 1-p.AvgSim <= ceil {
			out[p.Label] = append(out[p.Label], p)
		}
	}
	for _, list := range out {
		sort.Slice(list, func(i, j int) bool { return list[i].AvgSim > list[j].AvgSim })
	}
	return out
}
