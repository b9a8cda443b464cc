package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeBounds(t *testing.T) {
	lower := metricDef{name: "t", unit: "s", bound: 0.10}
	higher := metricDef{name: "q", unit: "1/s", higher: true, bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.7, 1.0, 1.3, 0.8, 1.2}
	for _, c := range []struct {
		name   string
		def    metricDef
		parent []float64
		change []float64
		want   verdict
	}{
		{"within bound", lower, tight, []float64{1.05, 1.06, 1.04}, verdictOK},
		{"slower than bound", lower, tight, []float64{1.15, 1.16, 1.14}, verdictRegression},
		{"faster is never a regression", lower, tight, []float64{0.5}, verdictOK},
		{"higher is better: drop", higher, tight, []float64{0.85}, verdictRegression},
		{"higher is better: rise", higher, tight, []float64{1.5}, verdictOK},
		{"parent spread wider than bound", lower, noisy, []float64{1.5}, verdictUnresolved},
		{"no data", lower, nil, []float64{1}, verdictMissing},
	} {
		if _, got := judge(c.def, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func writeReport(t *testing.T, dir, name string, batchS float64, failed int) string {
	t.Helper()
	rep := report{Commit: name, NumCPU: 2, Seconds: refSeconds}
	for i := 0; i < 3; i++ {
		rep.Runs = append(rep.Runs, &result{
			Workload: "batch-paper", Attempted: 100, Failed: failed,
			Metrics: map[string]float64{"batch_s": batchS + float64(i)*0.001},
		})
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base", 4.0, 0)
	var out bytes.Buffer
	if err := compareFiles(&out, base, writeReport(t, dir, "same", 4.1, 0)); err != nil {
		t.Errorf("2.5%% slower on a 25%% bound must pass: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, writeReport(t, dir, "slow", 5.2, 0)); err == nil || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("30%% slower on a 25%% bound must fail: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, writeReport(t, dir, "flaky", 4.0, 3)); err == nil || !strings.Contains(out.String(), "failed_share") {
		t.Errorf("a larger failed-operation share must fail: %v\n%s", err, out.String())
	}
}
