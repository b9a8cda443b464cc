package w2v

import (
	"testing"
	"testing/quick"
)

func TestHuffmanPrefixFree(t *testing.T) {
	counts := []int64{100, 50, 20, 10, 5, 1}
	h := buildHuffman(counts)
	codes := make([]string, len(counts))
	for i, c := range h.codes {
		s := ""
		for _, bit := range c {
			s += string('0' + rune(bit))
		}
		codes[i] = s
	}
	for i := range codes {
		for j := range codes {
			if i == j {
				continue
			}
			if len(codes[i]) <= len(codes[j]) && codes[j][:len(codes[i])] == codes[i] {
				t.Fatalf("code %q is a prefix of %q", codes[i], codes[j])
			}
		}
	}
}

func TestHuffmanFrequentWordsGetShortCodes(t *testing.T) {
	counts := []int64{1000, 500, 100, 10, 1}
	h := buildHuffman(counts)
	for i := 1; i < len(counts); i++ {
		if len(h.codes[i]) < len(h.codes[i-1]) {
			t.Fatalf("code lengths not monotone with frequency: %d=%d bits, %d=%d bits",
				i-1, len(h.codes[i-1]), i, len(h.codes[i]))
		}
	}
}

func TestHuffmanPointsMatchCodes(t *testing.T) {
	counts := []int64{5, 4, 3, 2, 1}
	h := buildHuffman(counts)
	for w := range counts {
		if len(h.codes[w]) != len(h.points[w]) {
			t.Fatalf("word %d: %d code bits vs %d points", w, len(h.codes[w]), len(h.points[w]))
		}
		for _, p := range h.points[w] {
			if p < 0 || int(p) >= len(counts)-1 {
				t.Fatalf("word %d: inner node %d out of range", w, p)
			}
		}
	}
}

func TestHuffmanDegenerateCases(t *testing.T) {
	if h := buildHuffman(nil); len(h.codes) != 0 {
		t.Fatal("empty vocab")
	}
	h := buildHuffman([]int64{7})
	if len(h.codes) != 1 || len(h.codes[0]) != 0 {
		t.Fatalf("single word: %+v", h.codes)
	}
	// Zero counts must not break the tree.
	h = buildHuffman([]int64{0, 0, 5})
	for i := range h.codes {
		if len(h.codes[i]) == 0 {
			t.Fatalf("word %d got no code", i)
		}
	}
}

func TestHuffmanOptimalityProperty(t *testing.T) {
	// Kraft equality: a full binary Huffman tree satisfies Σ 2^-len = 1.
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		counts := make([]int64, len(raw))
		for i, v := range raw {
			counts[i] = int64(v%1000) + 1
		}
		h := buildHuffman(counts)
		var kraft float64
		for _, c := range h.codes {
			k := 1.0
			for range c {
				k /= 2
			}
			kraft += k
		}
		return kraft > 0.9999 && kraft < 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalSoftmaxLearnsTopics(t *testing.T) {
	m, err := Train(twoTopicCorpus(400), Config{
		Dim: 16, Window: 3, Epochs: 8, Workers: 1, Seed: 3, HS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	va1, _ := m.Vector("a1")
	va2, _ := m.Vector("a2")
	vb1, _ := m.Vector("b1")
	if cosine(va1, va2) <= cosine(va1, vb1) {
		t.Fatalf("HS failed to separate topics: within %.3f vs across %.3f",
			cosine(va1, va2), cosine(va1, vb1))
	}
}

func TestCBOWWithHierarchicalSoftmax(t *testing.T) {
	m, err := Train(twoTopicCorpus(400), Config{
		Dim: 16, Window: 3, Epochs: 8, Workers: 1, Seed: 3, HS: true, CBOW: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	va1, _ := m.Vector("a1")
	va2, _ := m.Vector("a2")
	vb1, _ := m.Vector("b1")
	if cosine(va1, va2) <= cosine(va1, vb1) {
		t.Fatal("CBOW+HS failed to separate topics")
	}
}
