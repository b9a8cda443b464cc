// Package embed wraps a trained embedding in the query structure the
// DarkVec analyses need: an L2-normalised matrix keyed by word, cosine
// similarity, and exact top-k nearest-neighbour search (the paper's
// classifier and clustering both use exact cosine k-NN). The search engine
// lives in knnbatch.go: Search scans the row-major matrix through the
// vecmath kernels, fanned out across workers; ivf.go's IVF.Search narrows
// the rows a scan is offered.
package embed

import (
	"errors"
	"math"
	"sort"

	"github.com/darkvec/darkvec/internal/vecmath"
	"github.com/darkvec/darkvec/internal/w2v"
)

// Space is a set of words with unit-norm vectors. Rows are dense; word ids
// are positions in Words.
type Space struct {
	Words []string
	Dim   int
	rows  []float32 // len(Words) x Dim, each row L2-normalised
	index map[string]int

	// MaxProcs caps the worker fan-out of the batched k-NN engine and of
	// the row-parallel consumers that honour Parallelism() (the LOO
	// classifier, silhouette, k-means). 0 means GOMAXPROCS, which also
	// arms the small-batch auto-serial fallback; 1 pins the serial path,
	// which reproducibility tests use to check that parallel output is
	// byte-identical.
	MaxProcs int

	// ann is the attached approximate-nearest-neighbour index (see ivf.go),
	// built before a Space is shared (BuildIVF) and immutable afterwards,
	// like the row matrix itself.
	ann *IVF
}

// FromModel builds a Space from a trained model, keeping only words in keep
// (nil keeps all) and dropping the pad token.
func FromModel(m *w2v.Model, keep map[string]bool) *Space {
	pad := m.Cfg.PadToken
	var words []string
	for _, w := range m.Words() {
		if w == pad && pad != "" {
			continue
		}
		if keep != nil && !keep[w] {
			continue
		}
		words = append(words, w)
	}
	sort.Strings(words)
	s := &Space{
		Words: words,
		Dim:   m.Dim(),
		rows:  make([]float32, len(words)*m.Dim()),
		index: make(map[string]int, len(words)),
	}
	for i, w := range words {
		s.index[w] = i
		v, _ := m.Vector(w)
		copy(s.rows[i*s.Dim:(i+1)*s.Dim], v)
		normalize(s.rows[i*s.Dim : (i+1)*s.Dim])
	}
	return s
}

// New builds a Space directly from words and vectors (vectors are copied and
// normalised). Lengths must agree.
func New(words []string, vectors [][]float32) (*Space, error) {
	if len(words) != len(vectors) {
		return nil, errors.New("embed: words/vectors length mismatch")
	}
	if len(words) == 0 {
		return &Space{index: map[string]int{}}, nil
	}
	dim := len(vectors[0])
	s := &Space{
		Words: append([]string(nil), words...),
		Dim:   dim,
		rows:  make([]float32, len(words)*dim),
		index: make(map[string]int, len(words)),
	}
	for i, v := range vectors {
		if len(v) != dim {
			return nil, errors.New("embed: ragged vector dimensions")
		}
		s.index[words[i]] = i
		copy(s.rows[i*dim:(i+1)*dim], v)
		normalize(s.rows[i*dim : (i+1)*dim])
	}
	return s, nil
}

func normalize(v []float32) {
	ss := vecmath.SquaredNorm64(v)
	if ss == 0 {
		return
	}
	vecmath.Scale(float32(1/math.Sqrt(ss)), v)
}

// Len returns the number of words.
func (s *Space) Len() int { return len(s.Words) }

// Index returns the row of word, if present.
func (s *Space) Index(word string) (int, bool) {
	i, ok := s.index[word]
	return i, ok
}

// Row returns the unit vector at row i (shared storage).
func (s *Space) Row(i int) []float32 { return s.rows[i*s.Dim : (i+1)*s.Dim] }

// Cosine returns the cosine similarity between rows i and j.
func (s *Space) Cosine(i, j int) float64 {
	return float64(vecmath.Dot(s.Row(i), s.Row(j)))
}

// Neighbor is one nearest-neighbour hit.
type Neighbor struct {
	Row int
	Sim float64
}

// KNN returns the k rows most cosine-similar to row i, excluding i itself,
// ordered by decreasing similarity. Ties break toward the lower row index
// for determinism.
func (s *Space) KNN(i, k int) []Neighbor { return collect(s.Search, []int{i}, k, nil)[0] }

// Similar is a nearest-neighbour hit resolved to its word.
type Similar struct {
	Word string
	Sim  float64
}

// MostSimilar returns the k words most cosine-similar to word, the
// word2vec-style query an analyst uses to pivot from one suspicious sender
// to its cohort. The second return is false when the word is not in the
// space.
func (s *Space) MostSimilar(word string, k int) ([]Similar, bool) {
	i, ok := s.index[word]
	if !ok {
		return nil, false
	}
	return s.resolve(s.KNN(i, k)), true
}

// resolve maps neighbour rows to their words.
func (s *Space) resolve(nn []Neighbor) []Similar {
	out := make([]Similar, len(nn))
	for j, n := range nn {
		out[j] = Similar{Word: s.Words[n.Row], Sim: n.Sim}
	}
	return out
}
