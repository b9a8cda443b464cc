package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is what the acceptance driver reads; the tables in
// metrics.go and workload.go are what the harness runs. They must say the
// same thing.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, harness refSeconds %d", decl.RunSeconds, refSeconds)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the harness", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, harness %q (or the why differs)", i, decl.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the harness", kind, len(declared), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			m := declared[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s[%d]: declared %+v, harness %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound presence wrong", kind, d.name)
			} else if bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: declared bound %v, harness %v (must be in (0, 0.25])", kind, d.name, *m.Bound, d.bound)
			}
			if seen[d.name] {
				t.Errorf("%s %s: declared twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}
