// Package drift compares successive embedding generations and turns the
// comparison into a publish-gate decision. Independently trained Word2Vec
// spaces are only defined up to rotation, so the signals that carry the
// gate are rotation-invariant: vocabulary churn over stable sender ids,
// k-NN neighbourhood overlap among senders common to both generations,
// the silhouette trajectory, per-class geometry measured through the
// class-centroid cosine profile (a Gram-matrix view that survives
// rotation), and the emergence of clusters dominated by never-seen
// senders. A retrained model whose composite drift score regresses past
// the configured budgets is rejected exactly like a failed load-back:
// the daemon keeps serving the previous generation and retries on the
// supervisor's backoff/breaker machinery.
package drift

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/darkvec/darkvec/internal/cluster"
	"github.com/darkvec/darkvec/internal/embed"
)

// ErrRejected marks a retrain rejected by the quality gate. The daemon
// matches it with errors.Is to distinguish a drift rejection from a
// training failure when composing degraded reasons.
var ErrRejected = errors.New("drift: candidate rejected by quality gate")

// Snapshot is one embedding generation frozen for comparison: the space,
// its cluster assignment, per-row ground-truth classes, and a stable
// matching key per row (the interner id when available, the sender word
// otherwise) so the same sender can be located across generations even
// though row order differs.
type Snapshot struct {
	Version string
	MeanSil float64

	space  *embed.Space
	assign []int
	class  []string // per row; "" = unlabeled
	key    []string // per row stable matching key
	byKey  map[string]int
}

// Rows returns the number of senders in the snapshot.
func (s *Snapshot) Rows() int { return s.space.Len() }

// Capture freezes a generation. class maps a sender word to its
// ground-truth class ("" for unlabeled senders — they still participate in
// churn and neighbourhood overlap, just not in per-class shift rows). id
// maps a sender word to its stable interner id; a nil func (or a miss)
// falls back to the word itself as the matching key, which is equivalent
// whenever both generations share one interner. The assignment is
// validated through the silhouette computation, so non-finite rows or a
// malformed clustering surface here as errors instead of NaN scores later.
func Capture(space *embed.Space, assign []int, version string, class func(word string) string, id func(word string) (uint32, bool)) (*Snapshot, error) {
	if space == nil {
		return nil, fmt.Errorf("drift: capture %q: nil space", version)
	}
	sil, err := cluster.Silhouette(space, assign)
	if err != nil {
		return nil, fmt.Errorf("drift: capture %q: %w", version, err)
	}
	n := space.Len()
	snap := &Snapshot{
		Version: version,
		assign:  append([]int(nil), assign...),
		space:   space,
		class:   make([]string, n),
		key:     make([]string, n),
		byKey:   make(map[string]int, n),
	}
	var sum float64
	for _, v := range sil {
		sum += v
	}
	if n > 0 {
		snap.MeanSil = sum / float64(n)
	}
	for i, w := range space.Words {
		if class != nil {
			snap.class[i] = class(w)
		}
		k := w
		if id != nil {
			if v, ok := id(w); ok {
				k = "#" + strconv.FormatUint(uint64(v), 10)
			}
		}
		snap.key[i] = k
		snap.byKey[k] = i
	}
	return snap, nil
}

// Options tunes Compare.
type Options struct {
	// K is the neighbourhood size for the stability metric (default 10).
	K int
}

// sampleLimit caps how many common senders are probed for neighbourhood
// overlap; sampling is a deterministic stride so repeated comparisons
// agree.
const sampleLimit = 512

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	return o
}

// ClassShift is the drift view of one ground-truth class.
type ClassShift struct {
	Class       string `json:"class"`
	PrevSenders int    `json:"prev_senders"`
	NextSenders int    `json:"next_senders"`
	Common      int    `json:"common"`
	// Shift is the mean absolute change of the class centroid's cosine to
	// every other class centroid, computed over common members only — a
	// rotation-invariant "the class moved relative to the rest of the
	// space". With fewer than two classes it degrades to the cohesion
	// delta.
	Shift float64 `json:"shift"`
	// Cohesion is the mean cosine of common members to their class
	// centroid within each generation's own space.
	CohesionPrev float64 `json:"cohesion_prev"`
	CohesionNext float64 `json:"cohesion_next"`
}

// Report is the outcome of comparing two generations.
type Report struct {
	PrevVersion string `json:"prev_version"`
	NextVersion string `json:"next_version"`
	PrevRows    int    `json:"prev_rows"`
	NextRows    int    `json:"next_rows"`

	Common  int `json:"common"`
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// VocabChurn is (Added+Removed)/union — 0 when the sender population
	// is identical, 1 when disjoint.
	VocabChurn float64 `json:"vocab_churn"`

	// NeighborhoodOverlap is the mean Jaccard overlap of each sampled
	// common sender's k nearest common neighbours across the two spaces.
	NeighborhoodOverlap float64 `json:"neighborhood_overlap"`
	OverlapSamples      int     `json:"overlap_samples"`

	SilhouettePrev float64 `json:"silhouette_prev"`
	SilhouetteNext float64 `json:"silhouette_next"`
	SilhouetteDrop float64 `json:"silhouette_drop"` // max(0, prev-next)

	// NewClusterFrac is the fraction of next-generation senders living in
	// clusters where the majority of members were never seen before — the
	// sybil-flood signature.
	NewClusterFrac float64 `json:"new_cluster_frac"`

	Classes       []ClassShift `json:"classes,omitempty"`
	MaxClassShift float64      `json:"max_class_shift"`

	// Score is the composite drift score in [0,1]: a weighted blend of
	// churn, neighbourhood instability, silhouette regression, class
	// shift, and new-cluster emergence.
	Score float64 `json:"score"`
}

// Composite score weights. They sum to 1, so the score stays in [0,1].
const (
	wChurn   = 0.30
	wOverlap = 0.25
	wSil     = 0.15
	wShift   = 0.15
	wNewClus = 0.15
)

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Compare measures how far next has drifted from prev.
func Compare(prev, next *Snapshot, o Options) (*Report, error) {
	if prev == nil || next == nil {
		return nil, errors.New("drift: compare needs two snapshots")
	}
	o = o.withDefaults()
	r := &Report{
		PrevVersion:    prev.Version,
		NextVersion:    next.Version,
		PrevRows:       prev.Rows(),
		NextRows:       next.Rows(),
		SilhouettePrev: prev.MeanSil,
		SilhouetteNext: next.MeanSil,
	}

	// Stable-id matching: common senders as (prevRow, nextRow) pairs.
	pairs := make([]pair, 0, min(prev.Rows(), next.Rows()))
	for ni, k := range next.key {
		if pi, ok := prev.byKey[k]; ok {
			pairs = append(pairs, pair{pi, ni})
		}
	}
	r.Common = len(pairs)
	r.Added = next.Rows() - r.Common
	r.Removed = prev.Rows() - r.Common
	if union := r.Common + r.Added + r.Removed; union > 0 {
		r.VocabChurn = float64(r.Added+r.Removed) / float64(union)
	}
	r.SilhouetteDrop = math.Max(0, r.SilhouettePrev-r.SilhouetteNext)
	r.NewClusterFrac = newClusterFrac(next, pairs)

	// Neighbourhood overlap over a deterministic sample of common senders.
	if r.Common >= 2 {
		maskPrev := make([]bool, prev.Rows())
		maskNext := make([]bool, next.Rows())
		for _, p := range pairs {
			maskPrev[p.p], maskNext[p.n] = true, true
		}
		samples := min(len(pairs), sampleLimit)
		qPrev := make([]int, samples)
		qNext := make([]int, samples)
		for i := 0; i < samples; i++ {
			p := pairs[i*len(pairs)/samples]
			qPrev[i], qNext[i] = p.p, p.n
		}
		k := min(o.K, r.Common-1)
		neighbours := func(s *Snapshot, queries []int, mask []bool) []map[string]bool {
			sets := make([]map[string]bool, len(queries))
			s.space.Search(queries, k, mask, func(i int, nn []embed.Neighbor) { sets[i] = keysOf(s, nn) })
			return sets
		}
		setsPrev, setsNext := neighbours(prev, qPrev, maskPrev), neighbours(next, qNext, maskNext)
		var total float64
		for i := 0; i < samples; i++ {
			total += jaccard(setsPrev[i], setsNext[i])
		}
		r.NeighborhoodOverlap = total / float64(samples)
		r.OverlapSamples = samples
	}

	classShifts(prev, next, pairs, r)

	r.Score = wChurn*clamp01(r.VocabChurn) +
		wOverlap*clamp01(1-r.NeighborhoodOverlap) +
		wSil*clamp01(r.SilhouetteDrop) +
		wShift*clamp01(r.MaxClassShift) +
		wNewClus*clamp01(r.NewClusterFrac)
	return r, nil
}

// pair links one common sender's row in the previous space (p) to its row
// in the next space (n).
type pair struct{ p, n int }

// newClusterFrac computes the fraction of next rows living in clusters
// whose membership is majority-new.
func newClusterFrac(next *Snapshot, pairs []pair) float64 {
	n := next.Rows()
	if n == 0 {
		return 0
	}
	matched := make([]bool, n)
	for _, p := range pairs {
		matched[p.n] = true
	}
	sizes := map[int]int{}
	newbies := map[int]int{}
	for i, c := range next.assign {
		sizes[c]++
		if !matched[i] {
			newbies[c]++
		}
	}
	emergent := 0
	for c, sz := range sizes {
		if newbies[c]*2 > sz {
			emergent += sz
		}
	}
	return float64(emergent) / float64(n)
}

// classShifts fills the per-class table. Shift is computed over common
// members only, so population churn does not masquerade as geometric
// movement; the centroid cosine profile against the other classes is
// rotation-invariant.
func classShifts(prev, next *Snapshot, pairs []pair, r *Report) {
	type members struct {
		prevRows, nextRows []int // common members, per space
	}
	byClass := map[string]*members{}
	classOf := func(m map[string]*members, name string) *members {
		cm := m[name]
		if cm == nil {
			cm = &members{}
			m[name] = cm
		}
		return cm
	}
	for _, p := range pairs {
		// A sender's class can differ between captures if the feeds
		// changed; only senders agreeing on a non-empty class anchor the
		// shift measurement.
		c := next.class[p.n]
		if c == "" || prev.class[p.p] != c {
			continue
		}
		cm := classOf(byClass, c)
		cm.prevRows = append(cm.prevRows, p.p)
		cm.nextRows = append(cm.nextRows, p.n)
	}
	if len(byClass) == 0 {
		return
	}
	names := make([]string, 0, len(byClass))
	for name := range byClass {
		names = append(names, name)
	}
	sort.Strings(names)

	// Class centroids over common members, one per space.
	centPrev := make(map[string][]float64, len(names))
	centNext := make(map[string][]float64, len(names))
	for _, name := range names {
		cm := byClass[name]
		centPrev[name] = centroid(prev.space, cm.prevRows)
		centNext[name] = centroid(next.space, cm.nextRows)
	}
	countAll := func(s *Snapshot, name string) int {
		n := 0
		for _, c := range s.class {
			if c == name {
				n++
			}
		}
		return n
	}
	for _, name := range names {
		cm := byClass[name]
		cs := ClassShift{
			Class:        name,
			PrevSenders:  countAll(prev, name),
			NextSenders:  countAll(next, name),
			Common:       len(cm.prevRows),
			CohesionPrev: cohesion(prev.space, cm.prevRows, centPrev[name]),
			CohesionNext: cohesion(next.space, cm.nextRows, centNext[name]),
		}
		if len(names) >= 2 {
			var sum float64
			for _, other := range names {
				if other == name {
					continue
				}
				sum += math.Abs(cos(centPrev[name], centPrev[other]) - cos(centNext[name], centNext[other]))
			}
			cs.Shift = sum / float64(len(names)-1)
		} else {
			cs.Shift = math.Abs(cs.CohesionNext - cs.CohesionPrev)
		}
		r.Classes = append(r.Classes, cs)
		if cs.Common >= 2 && cs.Shift > r.MaxClassShift {
			r.MaxClassShift = cs.Shift
		}
	}
}

// centroid returns the unnormalised mean vector of the rows in float64.
func centroid(s *embed.Space, rows []int) []float64 {
	out := make([]float64, s.Dim)
	for _, ri := range rows {
		row := s.Row(ri)
		for d, v := range row {
			out[d] += float64(v)
		}
	}
	if len(rows) > 0 {
		inv := 1 / float64(len(rows))
		for d := range out {
			out[d] *= inv
		}
	}
	return out
}

// cohesion is the mean cosine of the rows to the centroid.
func cohesion(s *embed.Space, rows []int, cent []float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	var norm float64
	for _, v := range cent {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return 0
	}
	var sum float64
	for _, ri := range rows {
		row := s.Row(ri)
		var dot float64
		for d, v := range row {
			dot += float64(v) * cent[d]
		}
		sum += dot / norm // rows are unit-normalised
	}
	return sum / float64(len(rows))
}

// cos is the cosine between two float64 vectors.
func cos(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// keysOf maps a neighbour list to the snapshot's stable matching keys.
func keysOf(s *Snapshot, nn []embed.Neighbor) map[string]bool {
	out := make(map[string]bool, len(nn))
	for _, n := range nn {
		out[s.key[n.Row]] = true
	}
	return out
}

// jaccard is |a∩b| / |a∪b|; two empty sets count as fully overlapping.
func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Budgets are the configurable gate limits. A zero-valued field disables
// that check; the zero Budgets value disables the gate entirely.
type Budgets struct {
	// MaxScore rejects when the composite drift score exceeds it.
	MaxScore float64 `json:"max_score,omitempty"`
	// MaxVocabChurn rejects when sender-population churn exceeds it.
	MaxVocabChurn float64 `json:"max_vocab_churn,omitempty"`
	// MinNeighborhoodOverlap rejects when k-NN neighbourhood overlap
	// falls below it.
	MinNeighborhoodOverlap float64 `json:"min_neighborhood_overlap,omitempty"`
	// MaxSilhouetteDrop rejects when mean silhouette regresses by more.
	MaxSilhouetteDrop float64 `json:"max_silhouette_drop,omitempty"`
	// MaxClassShift rejects when any class's rotation-invariant centroid
	// shift exceeds it.
	MaxClassShift float64 `json:"max_class_shift,omitempty"`
	// MaxNewClusterFrac rejects when too much of the new generation lives
	// in majority-new clusters.
	MaxNewClusterFrac float64 `json:"max_new_cluster_frac,omitempty"`
}

// Enabled reports whether any budget is configured.
func (b Budgets) Enabled() bool {
	return b.MaxScore > 0 || b.MaxVocabChurn > 0 || b.MinNeighborhoodOverlap > 0 ||
		b.MaxSilhouetteDrop > 0 || b.MaxClassShift > 0 || b.MaxNewClusterFrac > 0
}

// Evaluate returns one human-readable reason per violated budget; an empty
// slice means the candidate passes the gate.
func (b Budgets) Evaluate(r *Report) []string {
	var reasons []string
	if b.MaxScore > 0 && r.Score > b.MaxScore {
		reasons = append(reasons, fmt.Sprintf("drift score %.3f > budget %.3f", r.Score, b.MaxScore))
	}
	if b.MaxVocabChurn > 0 && r.VocabChurn > b.MaxVocabChurn {
		reasons = append(reasons, fmt.Sprintf("vocabulary churn %.3f > budget %.3f", r.VocabChurn, b.MaxVocabChurn))
	}
	if b.MinNeighborhoodOverlap > 0 && r.OverlapSamples > 0 && r.NeighborhoodOverlap < b.MinNeighborhoodOverlap {
		reasons = append(reasons, fmt.Sprintf("neighborhood overlap %.3f < budget %.3f", r.NeighborhoodOverlap, b.MinNeighborhoodOverlap))
	}
	if b.MaxSilhouetteDrop > 0 && r.SilhouetteDrop > b.MaxSilhouetteDrop {
		reasons = append(reasons, fmt.Sprintf("silhouette drop %.3f > budget %.3f", r.SilhouetteDrop, b.MaxSilhouetteDrop))
	}
	if b.MaxClassShift > 0 && r.MaxClassShift > b.MaxClassShift {
		reasons = append(reasons, fmt.Sprintf("class shift %.3f > budget %.3f", r.MaxClassShift, b.MaxClassShift))
	}
	if b.MaxNewClusterFrac > 0 && r.NewClusterFrac > b.MaxNewClusterFrac {
		reasons = append(reasons, fmt.Sprintf("new-cluster fraction %.3f > budget %.3f", r.NewClusterFrac, b.MaxNewClusterFrac))
	}
	return reasons
}
