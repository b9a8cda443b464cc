package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// tinyEnv builds the cheapest Env that still exercises every experiment.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(Options{
		Seed: 3, Days: 6, Scale: 0.01, Rate: 0.05,
		Dim: 16, Window: 8, Epochs: 2,
	})
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	e := tinyEnv(t)
	for _, runner := range All() {
		res, err := runner.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", runner.ID, err)
		}
		if res.ID != runner.ID {
			t.Errorf("%s: result id %q", runner.ID, res.ID)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: no rows", runner.ID)
		}
		out := res.Render()
		if !strings.Contains(out, runner.ID) {
			t.Errorf("%s: render missing id\n%s", runner.ID, out)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Errorf("%s: csv: %v", runner.ID, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: empty csv", runner.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table3"); !ok {
		t.Fatal("table3 must be registered")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id must be absent")
	}
	if len(All()) < 18 {
		t.Fatalf("registry too small: %d", len(All()))
	}
}

func TestEmbeddingCache(t *testing.T) {
	e := tinyEnv(t)
	a, err := e.Embedding("domain", e.Opts.Days)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Embedding("domain", e.Opts.Days)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("embedding must be cached")
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three systems")
	}
	e := tinyEnv(t)
	res, err := e.Table3()
	if err != nil {
		t.Fatal(err)
	}
	// DANTE's skip-gram count must dwarf DarkVec's on the same window —
	// the paper's central scalability claim.
	var darkvecPairs, dantePairs string
	for _, row := range res.Rows {
		if row[0] == "darkvec" && darkvecPairs == "" {
			darkvecPairs = row[2]
		}
		if row[0] == "dante" && dantePairs == "" {
			dantePairs = row[2]
		}
	}
	if darkvecPairs == "" || dantePairs == "" {
		t.Fatalf("missing rows: %+v", res.Rows)
	}
	if len(dantePairs) < len(darkvecPairs) {
		t.Fatalf("DANTE pairs %s should exceed DarkVec pairs %s", dantePairs, darkvecPairs)
	}
}

func TestRenderAlignment(t *testing.T) {
	r := Result{
		ID: "x", Title: "t",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"lonng", "1"}},
		Notes:  []string{"n"},
	}
	out := r.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("render:\n%s", out)
	}
	if !strings.HasPrefix(lines[3], "note: ") {
		t.Fatalf("notes missing: %q", lines[3])
	}
}

func TestRampCorrelation(t *testing.T) {
	e := tinyEnv(t)
	// unknown4 activates progressively; its ramp correlation must be
	// clearly positive, and clearly above the steady unknown1 group.
	adb := e.Full.Raster(e.Out.Groups["unknown4-adb"], 86400)
	steady := e.Full.Raster(e.Out.Groups["unknown1-netbios"], 86400)
	ra, rs := rampCorrelation(adb), rampCorrelation(steady)
	if ra < 0.3 {
		t.Fatalf("adb ramp correlation = %.2f, want clearly positive", ra)
	}
	if ra <= rs {
		t.Fatalf("adb ramp %.2f must exceed steady group %.2f", ra, rs)
	}
}

func TestExtensionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several models")
	}
	e := tinyEnv(t)
	for _, id := range []string{"transfer", "incremental", "ablation-w2v", "neighbours"} {
		runner, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		res, err := runner.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
	}
}

func TestIncrementalCoverageOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several models")
	}
	e := tinyEnv(t)
	res, err := e.Incremental()
	if err != nil {
		t.Fatal(err)
	}
	// Row order: stale, warm refresh, full. The stale model must not cover
	// more of the last day than the refreshed ones.
	parse := func(s string) float64 {
		var v float64
		fmt.Sscanf(s, "%f%%", &v)
		return v
	}
	stale := parse(res.Rows[0][1])
	incr := parse(res.Rows[1][1])
	full := parse(res.Rows[2][1])
	if stale > incr+1e-9 || stale > full+1e-9 {
		t.Fatalf("coverage ordering broken: stale %.1f incr %.1f full %.1f", stale, incr, full)
	}
}

// TestIncrementalDeterministic: the refresh table is a function of the
// seed — two runs agree on every coverage and accuracy cell — and its
// middle row really is a warm start: surviving senders seeded, new ones
// fresh, fewer epochs than a cold train.
func TestIncrementalDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several models")
	}
	a, err := tinyEnv(t).Incremental()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyEnv(t).Incremental()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 3 || a.Rows[1][0] != "warm refresh" {
		t.Fatalf("rows = %v", a.Rows)
	}
	for i := range a.Rows {
		if a.Rows[i][1] != b.Rows[i][1] || a.Rows[i][2] != b.Rows[i][2] {
			t.Errorf("row %q differs between runs: %v vs %v", a.Rows[i][0], a.Rows[i], b.Rows[i])
		}
	}
	var seeded, fresh, retired, epochs, budget int
	note := a.Notes[len(a.Notes)-1]
	if _, err := fmt.Sscanf(note, "warm refresh seeded %d rows (%d fresh, %d retired) and ran %d of %d epochs",
		&seeded, &fresh, &retired, &epochs, &budget); err != nil {
		t.Fatalf("warm note %q: %v", note, err)
	}
	if seeded == 0 || fresh == 0 || epochs >= budget {
		t.Errorf("not a warm start: %q", note)
	}
}
