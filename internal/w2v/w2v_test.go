package w2v

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/darkvec/darkvec/internal/netutil"
)

// vocabOf builds the vocabulary the trainer derives from sentences.
func vocabOf(sentences [][]string, padToken string) *Vocabulary {
	enc := encode(sentences)
	v, _ := vocabFromCounts(enc.Words, enc.Counts, padToken)
	return v
}

func TestVocabularyOrderAndCounts(t *testing.T) {
	v := vocabOf([][]string{
		{"b", "a", "b", "c", "b", "a"},
	}, "")
	if v.Size() != 3 {
		t.Fatalf("size = %d", v.Size())
	}
	// Most frequent first.
	if v.Word(0) != "b" || v.Count(0) != 3 {
		t.Fatalf("id 0 = %s/%d", v.Word(0), v.Count(0))
	}
	if v.Word(1) != "a" || v.Word(2) != "c" {
		t.Fatalf("order: %v", v.Words())
	}
	if v.total != 6 {
		t.Fatalf("total = %d", v.total)
	}
	id, ok := v.ID("c")
	if !ok || id != 2 {
		t.Fatalf("ID(c) = %d,%v", id, ok)
	}
	if _, ok := v.ID("zzz"); ok {
		t.Fatal("unknown word must be absent")
	}
}

func TestVocabularyPadToken(t *testing.T) {
	v := vocabOf([][]string{{"a", "a"}}, "NULL")
	if _, ok := v.ID("NULL"); !ok {
		t.Fatal("pad token must always be in vocabulary")
	}
	if v.Count(mustID(t, v, "NULL")) != 0 {
		t.Fatal("synthetic pad token must have count 0")
	}
}

func mustID(t *testing.T, v *Vocabulary, w string) int32 {
	t.Helper()
	id, ok := v.ID(w)
	if !ok {
		t.Fatalf("word %q missing", w)
	}
	return id
}

// TestVocabularyEncode: the caller-id → row permutation sends every
// occurring word to its row and drops a zero-count one.
func TestVocabularyEncode(t *testing.T) {
	v, perm := vocabFromCounts([]string{"a", "zzz", "b"}, []int64{1, 0, 2}, "")
	if v.Size() != 2 || perm[1] != -1 || v.Word(perm[0]) != "a" || v.Word(perm[2]) != "b" {
		t.Fatalf("perm = %v over %v", perm, v.Words())
	}
}

func TestVocabularyTieBreakDeterministic(t *testing.T) {
	a := vocabOf([][]string{{"x", "y", "z"}}, "")
	b := vocabOf([][]string{{"z", "y", "x"}}, "")
	if !reflect.DeepEqual(a.Words(), b.Words()) {
		t.Fatalf("tie order differs: %v vs %v", a.Words(), b.Words())
	}
}

func TestSigmoidTable(t *testing.T) {
	for _, x := range []float32{-10, -6, -3, -1, -0.1, 0, 0.1, 1, 3, 6, 10} {
		got := float64(sigmoid(x))
		want := 1 / (1 + math.Exp(-float64(x)))
		if math.Abs(got-want) > 0.01 {
			t.Errorf("sigmoid(%v) = %v, want %v", x, got, want)
		}
	}
	if sigmoid(100) != 1 || sigmoid(-100) != 0 {
		t.Fatal("saturation broken")
	}
}

func TestSigmoidMonotoneProperty(t *testing.T) {
	f := func(a, b float32) bool {
		if a != a || b != b { // NaN guard
			return true
		}
		if a > b {
			a, b = b, a
		}
		return sigmoid(a) <= sigmoid(b)+1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAliasSamplerDistribution(t *testing.T) {
	counts := []int64{1000, 100, 10}
	s := newAliasSampler(counts, 0.75)
	r := netutil.NewRand(5)
	draws := 200000
	hist := make([]int, len(counts))
	for i := 0; i < draws; i++ {
		hist[s.sample(r)]++
	}
	// Expected ∝ count^0.75.
	var want [3]float64
	var total float64
	for i, c := range counts {
		want[i] = math.Pow(float64(c), 0.75)
		total += want[i]
	}
	for i := range counts {
		got := float64(hist[i]) / float64(draws)
		exp := want[i] / total
		if math.Abs(got-exp) > 0.01 {
			t.Errorf("bucket %d freq %.4f, want %.4f", i, got, exp)
		}
	}
}

func TestAliasSamplerZeroCounts(t *testing.T) {
	s := newAliasSampler([]int64{0, 0, 0}, 0.75)
	r := netutil.NewRand(1)
	hist := make([]int, 3)
	for i := 0; i < 3000; i++ {
		hist[s.sample(r)]++
	}
	for i, h := range hist {
		if h == 0 {
			t.Errorf("all-zero counts must fall back to uniform; bucket %d empty", i)
		}
	}
}

func TestAliasSamplerSkipsZeroCountEntries(t *testing.T) {
	// Entry 1 has zero count and must (almost) never be drawn.
	s := newAliasSampler([]int64{100, 0, 100}, 0.75)
	r := netutil.NewRand(2)
	for i := 0; i < 10000; i++ {
		if s.sample(r) == 1 {
			t.Fatal("zero-count entry sampled")
		}
	}
}

// twoTopicCorpus builds sentences where words within a topic co-occur and
// topics never mix — the basic structure Word2Vec must recover.
func twoTopicCorpus(n int) [][]string {
	topicA := []string{"a1", "a2", "a3", "a4"}
	topicB := []string{"b1", "b2", "b3", "b4"}
	r := netutil.NewRand(99)
	var out [][]string
	for i := 0; i < n; i++ {
		topic := topicA
		if i%2 == 1 {
			topic = topicB
		}
		sent := make([]string, 8)
		for j := range sent {
			sent[j] = topic[r.Intn(len(topic))]
		}
		out = append(out, sent)
	}
	return out
}

func cosine(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func TestSkipGramLearnsTopics(t *testing.T) {
	m, err := train(twoTopicCorpus(400), Config{
		Dim: 16, Window: 3, Epochs: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	va1, _ := m.Vector("a1")
	va2, _ := m.Vector("a2")
	vb1, _ := m.Vector("b1")
	within := cosine(va1, va2)
	across := cosine(va1, vb1)
	if within <= across {
		t.Fatalf("within-topic similarity %.3f must beat across-topic %.3f", within, across)
	}
	if within < 0.5 {
		t.Errorf("within-topic similarity too weak: %.3f", within)
	}
}

func TestCBOWLearnsTopics(t *testing.T) {
	m, err := train(twoTopicCorpus(400), Config{
		Dim: 16, Window: 3, Epochs: 8, Seed: 3, CBOW: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	va1, _ := m.Vector("a1")
	va2, _ := m.Vector("a2")
	vb1, _ := m.Vector("b1")
	if cosine(va1, va2) <= cosine(va1, vb1) {
		t.Fatal("CBOW failed to separate topics")
	}
}

func TestTrainDeterministicSingleWorker(t *testing.T) {
	cfg := Config{Dim: 8, Window: 2, Epochs: 3, Seed: 42}
	m1, err := train(twoTopicCorpus(50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := train(twoTopicCorpus(50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Syn0, m2.Syn0) {
		t.Fatal("single-worker training must be bit-reproducible")
	}
}

func TestTrainSeedChangesResult(t *testing.T) {
	c1 := Config{Dim: 8, Window: 2, Epochs: 2, Seed: 1}
	c2 := c1
	c2.Seed = 2
	m1, _ := train(twoTopicCorpus(50), c1)
	m2, _ := train(twoTopicCorpus(50), c2)
	if reflect.DeepEqual(m1.Syn0, m2.Syn0) {
		t.Fatal("different seeds should differ")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := train(nil, Config{}); err == nil {
		t.Fatal("empty corpus must fail")
	}
	if _, err := train([][]string{{}}, Config{}); err == nil {
		t.Fatal("no tokens must fail")
	}
	if _, err := train([][]string{{"a", "b"}}, Config{Epochs: -3}); err == nil {
		t.Fatal("negative epochs must fail")
	}
}

func TestTrainWithPadding(t *testing.T) {
	m, err := train([][]string{{"a", "b"}, {"b", "c"}}, Config{
		Dim: 4, Window: 3, Epochs: 2, Seed: 1, PadToken: "NULL",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Vector("NULL"); !ok {
		t.Fatal("pad token must be embedded")
	}
	// Padded skip-grams: every token contributes 2·window positive pairs.
	// 4 tokens × 6 = 24 per epoch.
	if m.Pairs != 24 {
		t.Fatalf("pairs per epoch = %d, want 24", m.Pairs)
	}
}

func TestTrainWithoutPaddingClipsWindows(t *testing.T) {
	m, err := train([][]string{{"a", "b", "c"}}, Config{
		Dim: 4, Window: 2, Epochs: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Clipped pairs for length 3, window 2: 2+2+2 = 6.
	if m.Pairs != 6 {
		t.Fatalf("pairs = %d, want 6", m.Pairs)
	}
}

func TestShrinkWindowReducesPairs(t *testing.T) {
	full, err := train(twoTopicCorpus(100), Config{Dim: 4, Window: 4, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := train(twoTopicCorpus(100), Config{Dim: 4, Window: 4, Epochs: 1, Seed: 1, ShrinkWindow: true})
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Pairs >= full.Pairs {
		t.Fatalf("shrink window pairs %d !< full %d", shrunk.Pairs, full.Pairs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := train(twoTopicCorpus(50), Config{Dim: 8, Window: 2, Epochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != m.Dim() || back.Vocab.Size() != m.Vocab.Size() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", back.Dim(), back.Vocab.Size(), m.Dim(), m.Vocab.Size())
	}
	for _, w := range m.Words() {
		a, _ := m.Vector(w)
		b, ok := back.Vector(w)
		if !ok || !reflect.DeepEqual(a, b) {
			t.Fatalf("vector of %q not preserved", w)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must fail")
	}
	if _, err := Load(bytes.NewReader([]byte("NOPExxxxxxxxxxxx"))); err == nil {
		t.Fatal("bad magic must fail")
	}
}

func TestVectorUnknownWord(t *testing.T) {
	m, _ := train(twoTopicCorpus(20), Config{Dim: 4, Window: 2, Epochs: 1, Seed: 1})
	if _, ok := m.Vector("nope"); ok {
		t.Fatal("unknown word must report absence")
	}
}
