// Package w2v is a from-scratch Word2Vec implementation: skip-gram and CBOW
// architectures with negative sampling, a sigmoid lookup table and linear
// learning-rate decay — the feature set DarkVec needs from Gensim,
// reimplemented on the standard library. Vectors are float32 and training
// is one goroutine, so a (corpus, Config) pair determines the model bytes.
package w2v

import (
	"sort"
)

// Vocabulary interns corpus words to dense ids sorted by decreasing
// frequency (id 0 is the most frequent word), the layout the negative
// sampler expects.
type Vocabulary struct {
	ids    map[string]int32
	words  []string
	counts []int64
	total  int64
}

// vocabFromCounts builds a Vocabulary from an id-indexed (words, counts)
// table: a word that occurs is kept, the pad token (when non-empty) is
// always kept, even at count 0, and order is count desc then word asc, so
// the vocabulary does not depend on the caller's id order. The second
// result maps the caller's ids to vocabulary ids (-1 = dropped). words
// must be distinct.
func vocabFromCounts(words []string, counts []int64, padToken string) (*Vocabulary, []int32) {
	type wc struct {
		w  string
		c  int64
		id int32 // caller id; -1 for the synthetic pad entry
	}
	all := make([]wc, 0, len(words))
	padSeen := false
	for i, w := range words {
		if w == padToken && padToken != "" {
			padSeen = true
		}
		if counts[i] > 0 || w == padToken {
			all = append(all, wc{w, counts[i], int32(i)})
		}
	}
	if padToken != "" && !padSeen {
		all = append(all, wc{padToken, 0, -1})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	v := &Vocabulary{
		ids:    make(map[string]int32, len(all)),
		words:  make([]string, len(all)),
		counts: make([]int64, len(all)),
	}
	perm := make([]int32, len(words))
	for i := range perm {
		perm[i] = -1
	}
	for i, e := range all {
		v.ids[e.w] = int32(i)
		v.words[i] = e.w
		v.counts[i] = e.c
		v.total += e.c
		if e.id >= 0 {
			perm[e.id] = int32(i)
		}
	}
	return v, perm
}

// Size returns the number of vocabulary entries.
func (v *Vocabulary) Size() int { return len(v.words) }

// ID returns the id of word, if present.
func (v *Vocabulary) ID(word string) (int32, bool) {
	id, ok := v.ids[word]
	return id, ok
}

// Word returns the word of an id.
func (v *Vocabulary) Word(id int32) string { return v.words[id] }

// Count returns the corpus frequency of an id.
func (v *Vocabulary) Count(id int32) int64 { return v.counts[id] }

// Words returns all words in id order (most frequent first). The slice is
// shared; do not mutate.
func (v *Vocabulary) Words() []string { return v.words }
