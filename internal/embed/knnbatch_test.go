package embed

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
)

// tieSpace builds a space engineered to stress the deterministic tie-break:
// groups of byte-identical vectors (exact cosine ties against every query)
// mixed with random rows. With duplicates, the top-k frontier almost always
// cuts through a tied group, so any ordering instability between the serial
// and parallel paths shows up immediately.
func tieSpace(t testing.TB, n, dim int, seed uint64) *Space {
	t.Helper()
	r := netutil.NewRand(seed)
	words := make([]string, n)
	vecs := make([][]float32, n)
	for i := range vecs {
		words[i] = fmt.Sprintf("w%03d", i)
		v := make([]float32, dim)
		if i%3 != 0 && i > 0 {
			// Two of every three rows duplicate the previous row.
			copy(v, vecs[i-1])
		} else {
			for d := range v {
				v[d] = float32(r.NormFloat64())
			}
		}
		vecs[i] = v
	}
	s, err := New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func neighborsEqual(t *testing.T, what string, a, b [][]Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s row %d: %d vs %d neighbours", what, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s row %d neighbour %d: %+v vs %+v", what, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// subset is a search restricted to a candidate list: the list as a mask.
func subset(search searchFunc, n int, queries, candidates []int, k int) [][]Neighbor {
	mask := make([]bool, n)
	for _, r := range candidates {
		mask[r] = true
	}
	return collect(search, queries, k, mask)
}

// bruteSubset is the reference the engines are checked against: every
// candidate but the query, sorted by (similarity desc, row asc), cut at k.
func bruteSubset(s *Space, q int, candidates []int, k int) []Neighbor {
	var all []Neighbor
	for _, r := range candidates {
		if r != q {
			all = append(all, Neighbor{Row: r, Sim: s.Cosine(q, r)})
		}
	}
	sort.Slice(all, func(a, b int) bool { return worse(all[b], all[a]) })
	if k <= 0 || len(all) == 0 {
		return nil
	}
	return all[:min(k, len(all))]
}

// TestKNNBatchSerialParallelIdentical asserts the engine's determinism
// contract on a tie-heavy space: for every worker count, a batch Search,
// AllKNN and a candidate-restricted Search return byte-identical results to
// the MaxProcs=1 serial pin.
func TestKNNBatchSerialParallelIdentical(t *testing.T) {
	s := tieSpace(t, 90, 6, 77)
	rows := make([]int, s.Len())
	for i := range rows {
		rows[i] = i
	}
	for _, k := range []int{1, 3, 7} {
		s.MaxProcs = 1
		serialBatch := collect(s.Search, rows, k, nil)
		serialAll := s.AllKNN(k)
		serialSub := subset(s.Search, s.Len(), rows[:40], rows[20:], k)
		for _, workers := range []int{2, 3, 8} {
			s.MaxProcs = workers
			neighborsEqual(t, fmt.Sprintf("KNNBatch k=%d workers=%d", k, workers),
				serialBatch, collect(s.Search, rows, k, nil))
			neighborsEqual(t, fmt.Sprintf("AllKNN k=%d workers=%d", k, workers),
				serialAll, s.AllKNN(k))
			neighborsEqual(t, fmt.Sprintf("KNNSubset k=%d workers=%d", k, workers),
				serialSub, subset(s.Search, s.Len(), rows[:40], rows[20:], k))
		}
		s.MaxProcs = 0
	}
}

// TestKNNBatchMatchesKNN pins a batch Search to the per-row KNN path:
// batching is an execution strategy, not a semantic change.
func TestKNNBatchMatchesKNN(t *testing.T) {
	s := tieSpace(t, 50, 4, 11)
	rows := []int{0, 7, 13, 49}
	batch := collect(s.Search, rows, 5, nil)
	for i, r := range rows {
		single := s.KNN(r, 5)
		if len(single) != len(batch[i]) {
			t.Fatalf("row %d: %d vs %d neighbours", r, len(single), len(batch[i]))
		}
		for j := range single {
			if single[j] != batch[i][j] {
				t.Fatalf("row %d neighbour %d: %+v vs %+v", r, j, single[j], batch[i][j])
			}
		}
	}
}

// TestKNNTieBreakOrder asserts the total order directly: among exactly tied
// candidates, the lower row index always wins, and output is sorted by
// similarity descending then row ascending.
func TestKNNTieBreakOrder(t *testing.T) {
	// Five identical rows plus one distant query row.
	words := []string{"q", "t1", "t2", "t3", "t4", "t5"}
	vecs := [][]float32{
		{1, 0.2}, {0.5, 1}, {0.5, 1}, {0.5, 1}, {0.5, 1}, {0.5, 1},
	}
	s, err := New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	nn := s.KNN(0, 3)
	if len(nn) != 3 {
		t.Fatalf("got %d neighbours", len(nn))
	}
	for j, want := range []int{1, 2, 3} {
		if nn[j].Row != want {
			t.Fatalf("tied neighbour %d: row %d, want %d (lowest rows win)", j, nn[j].Row, want)
		}
	}
	for j := 1; j < len(nn); j++ {
		if nn[j-1].Sim < nn[j].Sim ||
			(nn[j-1].Sim == nn[j].Sim && nn[j-1].Row > nn[j].Row) {
			t.Fatalf("order violated at %d: %+v before %+v", j, nn[j-1], nn[j])
		}
	}
}

// TestKNNSubsetExcludesQueryOnly verifies LOO semantics: the query row never
// appears in its own result even when it is in the candidate set, while
// other duplicates of it do.
func TestKNNSubsetExcludesQueryOnly(t *testing.T) {
	words := []string{"a", "b", "c"}
	vecs := [][]float32{{1, 0}, {1, 0}, {0, 1}}
	s, err := New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	res := subset(s.Search, s.Len(), []int{0}, []int{0, 1, 2}, 3)
	if len(res[0]) != 2 {
		t.Fatalf("got %d neighbours, want 2", len(res[0]))
	}
	if res[0][0].Row != 1 || res[0][1].Row != 2 {
		t.Fatalf("neighbours = %+v", res[0])
	}
}

// TestKNNBatchEdgeCases covers empty input, k<=0, oversized k and a mask
// that marks nothing: k <= 0 calls nothing, and otherwise every query gets
// exactly one call, empty when no row qualifies.
func TestKNNBatchEdgeCases(t *testing.T) {
	s := tieSpace(t, 10, 3, 5)
	if out := collect(s.Search, nil, 3, nil); len(out) != 0 {
		t.Fatalf("empty rows: %v", out)
	}
	out := collect(s.Search, []int{0, 1}, 0, nil)
	if out[0] != nil || out[1] != nil {
		t.Fatalf("k=0: %v", out)
	}
	// k larger than the space returns everything but self.
	out = collect(s.Search, []int{4}, 99, nil)
	if len(out[0]) != s.Len()-1 {
		t.Fatalf("oversized k returned %d of %d", len(out[0]), s.Len()-1)
	}
	calls := 0
	s.Search(nil, 3, nil, func(int, []Neighbor) { calls++ })
	s.Search([]int{0}, 0, nil, func(int, []Neighbor) { calls++ })
	if calls != 0 {
		t.Fatal("no queries or k <= 0 must not invoke fn")
	}
	s.Search([]int{0, 1}, 3, make([]bool, s.Len()), func(_ int, nn []Neighbor) {
		calls++
		if len(nn) != 0 {
			t.Errorf("empty mask: %v", nn)
		}
	})
	if calls != 2 {
		t.Fatalf("empty mask: fn ran %d times for 2 queries", calls)
	}
}

// TestKNNCapsKAtRows: k sizes the selection heap only after it is capped at
// the rows a query can match, so an absurd k costs what k = Len()-1 costs.
func TestKNNCapsKAtRows(t *testing.T) {
	s := tieSpace(t, 50, 4, 3)
	want := s.KNN(0, 49)
	// Empty the scratch pool, so the call below pays for a fresh heap.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := s.KNN(0, 1<<20)
	runtime.ReadMemStats(&after)
	neighborsEqual(t, "k=1<<20 vs k=49", [][]Neighbor{want}, [][]Neighbor{got})
	if b := after.TotalAlloc - before.TotalAlloc; b >= 64<<10 {
		t.Fatalf("KNN(0, 1<<20) on %d rows allocated %d B, want < 64 KiB", s.Len(), b)
	}
}
