package embed

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
)

// clusteredSpace builds a space with a genuine cluster structure — centers
// clusters of gaussian-perturbed copies of random unit centers — the regime
// IVF is designed for (darknet senders form coordinated cohorts, per the
// paper's GT classes). noise controls the perturbation.
func clusteredSpace(t testing.TB, n, dim, centers int, noise float64, seed uint64) *Space {
	t.Helper()
	r := netutil.NewRand(seed)
	base := make([][]float64, centers)
	for c := range base {
		v := make([]float64, dim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		base[c] = v
	}
	words := make([]string, n)
	vecs := make([][]float32, n)
	for i := range vecs {
		words[i] = fmt.Sprintf("s%06d", i)
		b := base[i%centers]
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(b[d] + noise*r.NormFloat64())
		}
		vecs[i] = v
	}
	s, err := New(words, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recallAtK measures |approx ∩ exact| / |exact| averaged over queries.
func recallAtK(exact, approx [][]Neighbor) float64 {
	var hit, total int
	for qi := range exact {
		ids := make(map[int]bool, len(exact[qi]))
		for _, nb := range exact[qi] {
			ids[nb.Row] = true
		}
		total += len(exact[qi])
		for _, nb := range approx[qi] {
			if ids[nb.Row] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

// TestIVFDeterminismAcrossWorkers asserts the ANN determinism contract:
// same seed and options ⇒ byte-identical neighbour lists at any worker
// count.
func TestIVFDeterminismAcrossWorkers(t *testing.T) {
	s := clusteredSpace(t, 600, 16, 12, 0.15, 11)
	s.MaxProcs = 1
	ix, err := s.BuildIVF(IVFOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, s.Len())
	for i := range rows {
		rows[i] = i
	}
	want := collect(ix.Search, rows, 10, nil)
	for _, workers := range []int{2, 4, 7} {
		s.MaxProcs = workers
		got := collect(ix.Search, rows, 10, nil)
		neighborsEqual(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
	// A rebuilt index over the same inputs reproduces the same answers.
	s2 := clusteredSpace(t, 600, 16, 12, 0.15, 11)
	s2.MaxProcs = 3
	ix2, err := s2.BuildIVF(IVFOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	neighborsEqual(t, "rebuild", want, collect(ix2.Search, rows, 10, nil))
}

// TestIVFCalibratedRecallFloor builds with auto-calibration at the default
// target on a clustered space and checks the measured whole-space recall@10
// — not just the calibration sample — holds the floor the acceptance
// criteria pin.
func TestIVFCalibratedRecallFloor(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 1500
	}
	s := clusteredSpace(t, n, 24, 40, 0.12, 3)
	ix, err := s.BuildIVF(IVFOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.TargetRecall != 0.99 {
		t.Fatalf("default target recall = %v, want 0.99", st.TargetRecall)
	}
	if st.CalibratedRecall < st.TargetRecall {
		t.Fatalf("calibrated recall %.3f below target %.3f", st.CalibratedRecall, st.TargetRecall)
	}
	rows := make([]int, s.Len())
	for i := range rows {
		rows[i] = i
	}
	exact := collect(s.Search, rows, 10, nil)
	approx := collect(ix.Search, rows, 10, nil)
	if r := recallAtK(exact, approx); r < 0.985 {
		// The calibration sample guarantees >= 0.99 on the sample; the full
		// space tracks it closely but is not bound by it — 0.985 is the
		// figure DESIGN.md states for queries it did not sample (measured
		// 0.9898 at n = 1500, 0.9949 at n = 5000). Rank identity over every
		// row, against the exact engine.
		t.Fatalf("whole-space recall@10 = %.4f, want >= 0.985 (calibrated %.3f at nprobe %d of %d cells)",
			r, st.CalibratedRecall, st.NProbe, st.Cells)
	}
	if st.NProbe >= st.Cells && st.Cells > 4 {
		t.Fatalf("calibration degenerated to exhaustive probing (nprobe %d of %d cells)", st.NProbe, st.Cells)
	}
}

// TestApproxShortAnswerRerunsExactly pins the completeness contract of the
// analyst's pivot: nprobe is calibrated at k = 10, so at k = 100 the probed
// cells of many rows hold fewer than k members. KNNApprox (and
// MostSimilarApprox on top of it) must hand every row min(k, n-1)
// neighbours — the formerly short ones re-run exactly, the rest untouched —
// and count each re-run on the index.
func TestApproxShortAnswerRerunsExactly(t *testing.T) {
	s := clusteredSpace(t, 2500, 32, 40, 0.3, 5)
	ix, err := s.BuildIVF(IVFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 100
	short := 0
	for i := 0; i < s.Len(); i++ {
		raw := ix.KNN(i, k)
		want := raw
		if len(raw) < k {
			short++
			want = s.KNN(i, k)
		}
		got := s.KNNApprox(i, k)
		if len(got) != k {
			t.Fatalf("row %d: %d neighbours, want %d (index alone gave %d)", i, len(got), k, len(raw))
		}
		neighborsEqual(t, fmt.Sprintf("row %d", i), [][]Neighbor{want}, [][]Neighbor{got})
	}
	if short == 0 {
		t.Fatal("no row was short through the index: the test space no longer exercises the re-run")
	}
	if got := ix.Stats().SimilarExactFallbacks; got != int64(short) {
		t.Fatalf("SimilarExactFallbacks = %d, want %d (rows the index left short)", got, short)
	}

	// MostSimilarApprox rides the same path: a short row resolves to the
	// exact answer's words, and the re-run is counted.
	for i := 0; i < s.Len(); i++ {
		if len(ix.KNN(i, k)) == k {
			continue
		}
		want, _ := s.MostSimilar(s.Words[i], k)
		got, ok := s.MostSimilarApprox(s.Words[i], k)
		if !ok || len(got) != len(want) {
			t.Fatalf("MostSimilarApprox(%s): %d entries, ok=%v, want %d", s.Words[i], len(got), ok, len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("MostSimilarApprox(%s) entry %d: %+v, want %+v", s.Words[i], j, got[j], want[j])
			}
		}
		break
	}
	if got := ix.Stats().SimilarExactFallbacks; got != int64(short)+1 {
		t.Fatalf("SimilarExactFallbacks after MostSimilarApprox = %d, want %d", got, short+1)
	}

	// k beyond the space: everything but self, still through the re-run —
	// and the count holds when requests race, as /v1/similar's do.
	before := ix.Stats().SimilarExactFallbacks
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 40; i += 4 {
				if nn := s.KNNApprox(i, s.Len()+5); len(nn) != s.Len()-1 {
					t.Errorf("oversized k, row %d: %d neighbours, want %d", i, len(nn), s.Len()-1)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := ix.Stats().SimilarExactFallbacks - before; got != 40 {
		t.Fatalf("40 concurrent short answers counted as %d", got)
	}
}

// TestIVFApproxFallsBackToExact pins the degradation contract: without an
// attached index every *Approx entry point answers exactly.
func TestIVFApproxFallsBackToExact(t *testing.T) {
	s := tieSpace(t, 90, 8, 2)
	if s.ANN() != nil {
		t.Fatal("fresh space should have no index")
	}
	rows := []int{0, 5, 44, 89}
	for _, r := range rows {
		a, b := s.KNN(r, 7), s.KNNApprox(r, 7)
		neighborsEqual(t, "no-index single", [][]Neighbor{a}, [][]Neighbor{b})
	}
	wantSim, ok1 := s.MostSimilar("w005", 5)
	gotSim, ok2 := s.MostSimilarApprox("w005", 5)
	if !ok1 || !ok2 || len(wantSim) != len(gotSim) {
		t.Fatalf("MostSimilarApprox fallback mismatch: %v %v", wantSim, gotSim)
	}
	for i := range wantSim {
		if wantSim[i] != gotSim[i] {
			t.Fatalf("MostSimilarApprox fallback: %+v vs %+v", wantSim[i], gotSim[i])
		}
	}
	if _, ok := s.MostSimilarApprox("absent", 5); ok {
		t.Fatal("missing word should report !ok")
	}
	// Detach restores exact answers after a build, too.
	if _, err := s.BuildIVF(IVFOptions{Seed: 1, NProbe: 1, Cells: 8}); err != nil {
		t.Fatal(err)
	}
	if s.ANN() == nil {
		t.Fatal("BuildIVF should attach")
	}
	s.ann = nil
	for _, r := range rows {
		neighborsEqual(t, "detached single", [][]Neighbor{s.KNN(r, 7)}, [][]Neighbor{s.KNNApprox(r, 7)})
	}
}

// TestIVFExhaustiveProbeMatchesExact: probing every cell scans every row,
// so the approximate answers must equal the exact engine's byte for byte
// (same selection heap, same tie-break) — the strongest internal
// consistency check available.
func TestIVFExhaustiveProbeMatchesExact(t *testing.T) {
	s := clusteredSpace(t, 400, 12, 8, 0.2, 9)
	ix, err := s.BuildIVF(IVFOptions{Cells: 10, NProbe: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, s.Len())
	for i := range rows {
		rows[i] = i
	}
	neighborsEqual(t, "exhaustive probe", collect(s.Search, rows, 9, nil), collect(ix.Search, rows, 9, nil))
}

// TestIVFSubsetEach checks the candidate-restricted scan: hits only within
// the candidate set, self excluded, and with every cell probed the result
// matches the exact subset engine.
func TestIVFSubsetEach(t *testing.T) {
	s := clusteredSpace(t, 300, 12, 6, 0.2, 13)
	ix, err := s.BuildIVF(IVFOptions{Cells: 6, NProbe: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var queries, candidates []int
	for i := 0; i < s.Len(); i++ {
		if i%3 == 0 {
			candidates = append(candidates, i)
		}
		if i%5 == 0 {
			queries = append(queries, i)
		}
	}
	want := subset(s.Search, s.Len(), queries, candidates, 5)
	got := make([][]Neighbor, len(queries))
	ix.KNNSubsetEach(queries, candidates, 5, func(qi int, nn []Neighbor) {
		got[qi] = append([]Neighbor(nil), nn...)
	})
	neighborsEqual(t, "subset exhaustive", want, got)

	// Partial probing never returns rows outside the candidate set or self.
	ix2, err := s.BuildIVF(IVFOptions{Cells: 10, NProbe: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	inCand := make(map[int]bool)
	for _, c := range candidates {
		inCand[c] = true
	}
	ix2.KNNSubsetEach(queries, candidates, 5, func(qi int, nn []Neighbor) {
		for _, nb := range nn {
			if !inCand[nb.Row] {
				t.Errorf("query %d returned non-candidate row %d", queries[qi], nb.Row)
			}
			if nb.Row == queries[qi] {
				t.Errorf("query %d returned itself", queries[qi])
			}
		}
	})
}

// TestSearchOneQueryMatchesBatch pins a one-query Search to the same query
// inside a batch of every row, on the exact engine and through an index,
// masked and not, and the exact masked answer to a brute-force scan of the
// candidate list — including duplicated vectors, where only the
// (similarity desc, row asc) order separates candidates, and spaces too
// small to have a neighbour.
func TestSearchOneQueryMatchesBatch(t *testing.T) {
	spaces := map[string]*Space{
		"clustered": clusteredSpace(t, 700, 12, 8, 0.2, 29),
		"ties":      tieSpace(t, 90, 6, 7),
		"one-row":   tieSpace(t, 1, 4, 5),
		"two-rows":  tieSpace(t, 2, 4, 5),
	}
	for name, s := range spaces {
		var labeled []int
		mask := make([]bool, s.Len())
		rows := make([]int, s.Len())
		for i := range mask {
			rows[i] = i
			if i%7 != 0 {
				mask[i] = true
				labeled = append(labeled, i)
			}
		}
		for _, k := range []int{0, 1, 7} {
			all, allMasked := collect(s.Search, rows, k, nil), collect(s.Search, rows, k, mask)
			for i := 0; i < s.Len(); i++ {
				neighborsEqual(t, fmt.Sprintf("%s exact unmasked row %d k=%d", name, i, k),
					[][]Neighbor{all[i]}, collect(s.Search, []int{i}, k, nil))
				neighborsEqual(t, fmt.Sprintf("%s exact masked row %d k=%d", name, i, k),
					[][]Neighbor{allMasked[i]}, collect(s.Search, []int{i}, k, mask))
				neighborsEqual(t, fmt.Sprintf("%s exact masked row %d k=%d vs brute force", name, i, k),
					[][]Neighbor{bruteSubset(s, i, labeled, k)}, [][]Neighbor{allMasked[i]})
			}
		}
		ix, err := s.BuildIVF(IVFOptions{Seed: 3, NProbe: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 7} {
			all, allMasked := collect(ix.Search, rows, k, nil), collect(ix.Search, rows, k, mask)
			for i := 0; i < s.Len(); i++ {
				neighborsEqual(t, fmt.Sprintf("%s ivf unmasked row %d k=%d", name, i, k),
					[][]Neighbor{all[i]}, collect(ix.Search, []int{i}, k, nil))
				neighborsEqual(t, fmt.Sprintf("%s ivf masked row %d k=%d", name, i, k),
					[][]Neighbor{allMasked[i]}, collect(ix.Search, []int{i}, k, mask))
			}
		}
	}
}

// TestIVFBuildErrors pins the failure modes darkvecd degrades on.
func TestIVFBuildErrors(t *testing.T) {
	empty, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.BuildIVF(IVFOptions{}); err != ErrEmptySpace {
		t.Fatalf("empty space: got %v, want ErrEmptySpace", err)
	}
	s := tieSpace(t, 50, 8, 1)
	s.rows[12] = float32(math.NaN())
	if _, err := s.BuildIVF(IVFOptions{}); err == nil {
		t.Fatal("non-finite row should fail the build")
	}
	if s.ANN() != nil {
		t.Fatal("failed build must not attach an index")
	}
	s2 := tieSpace(t, 50, 8, 1)
	if _, err := s2.BuildIVF(IVFOptions{Cells: -3}); err == nil {
		t.Fatal("negative cell count should fail")
	}
}

// TestIVFTinySpaces: 1- and 2-row spaces must not panic anywhere.
func TestIVFTinySpaces(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		s := tieSpace(t, n, 4, 5)
		ix, err := s.BuildIVF(IVFOptions{Seed: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			nn := s.KNNApprox(i, 3)
			if len(nn) > n-1 {
				t.Fatalf("n=%d row %d: %d neighbours", n, i, len(nn))
			}
			for _, nb := range nn {
				if nb.Row == i {
					t.Fatalf("n=%d row %d returned itself", n, i)
				}
			}
		}
		st := ix.Stats()
		if st.Rows != n {
			t.Fatalf("n=%d: stats rows %d", n, st.Rows)
		}
	}
}

// TestIVFStatsShape sanity-checks the introspection snapshot.
func TestIVFStatsShape(t *testing.T) {
	s := clusteredSpace(t, 500, 16, 10, 0.2, 21)
	ix, err := s.BuildIVF(IVFOptions{Cells: 20, NProbe: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Cells != 20 || st.NProbe != 3 || st.Rows != 500 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanCellRows != 25 {
		t.Fatalf("mean cell rows = %v, want 25", st.MeanCellRows)
	}
	if st.MaxCellRows < int(st.MeanCellRows) {
		t.Fatalf("max cell rows %d below mean %v", st.MaxCellRows, st.MeanCellRows)
	}
	if st.VectorBytes != int64(500*16*4) {
		t.Fatalf("vector bytes = %d", st.VectorBytes)
	}
	if st.TargetRecall != 0 || st.CalibratedRecall != 0 {
		t.Fatalf("pinned nprobe should leave calibration fields zero: %+v", st)
	}
	// Membership partition: every row appears exactly once.
	seen := make([]bool, s.Len())
	for _, r := range ix.members {
		if seen[r] {
			t.Fatalf("row %d filed twice", r)
		}
		seen[r] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("row %d missing from the index", i)
		}
	}
}

// TestClusterKMeansUnchanged guards the delegation refactor: the wrapper in
// internal/cluster must produce the exact assignment SphericalKMeans does.
func TestSphericalKMeansCentroidsUnit(t *testing.T) {
	s := clusteredSpace(t, 200, 8, 5, 0.2, 33)
	_, cents, _ := s.SphericalKMeans(5, 10, 42)
	for c := 0; c < 5; c++ {
		var ss float64
		for d := 0; d < 8; d++ {
			v := cents[c*8+d]
			ss += v * v
		}
		if math.Abs(ss-1) > 1e-9 {
			t.Fatalf("centroid %d norm² = %v", c, ss)
		}
	}
}
