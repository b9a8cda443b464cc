package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// samples groups the values of every metric by workload for one side of a
// comparison, plus the operation counts.
type samples struct {
	values    map[string]map[string][]float64 // workload → metric → one value per run
	attempted map[string]int
	failed    map[string]int
}

func collect(runs []*result, traced bool) samples {
	s := samples{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range runs {
		if r.Traced != traced {
			continue
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for _, tier := range []map[string]float64{r.Metrics, r.Watched} {
			for name, v := range tier {
				s.values[r.Workload][name] = append(s.values[r.Workload][name], v)
			}
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	return s
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict is the outcome for one (metric, workload) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
	verdictMissing    verdict = "missing"
)

// judge applies a metric's bound: the change regresses when its median is
// worse than the parent's by more than the bound. When the parent's own
// interquartile spread already exceeds the bound the pair cannot be decided
// either way and is reported as unresolved, never as unchanged.
func judge(def metricDef, parent, change []float64) (worse float64, v verdict) {
	if len(parent) == 0 || len(change) == 0 {
		return math.NaN(), verdictMissing
	}
	pm, cm := median(parent), median(change)
	if pm == 0 {
		return math.NaN(), verdictMissing
	}
	worse = (cm - pm) / math.Abs(pm)
	if def.higher {
		worse = -worse
	}
	if len(parent) >= 2 && spread(parent) > def.bound {
		return worse, verdictUnresolved
	}
	if worse > def.bound {
		return worse, verdictRegression
	}
	return worse, verdictOK
}

// compareFiles prints one row per (metric, workload) with both sides'
// medians and quartiles and the verdict, and fails on any regression or on a
// larger share of failed operations.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parent %s (%d CPUs, seed %d, %d s)  vs  change %s (%d CPUs, seed %d, %d s)\n",
		short(oldRep.Commit), oldRep.NumCPU, oldRep.Seed, oldRep.Seconds,
		short(newRep.Commit), newRep.NumCPU, newRep.Seed, newRep.Seconds)
	if oldRep.Seconds != newRep.Seconds || oldRep.Quick || newRep.Quick {
		return fmt.Errorf("run lengths differ or a side is a -quick run: bounds only apply to identical settings")
	}
	parent, change := collect(oldRep.Runs, false), collect(newRep.Runs, false)
	fmt.Fprintf(w, "%-14s %-22s %10s %21s %10s %21s %8s %7s  %s\n",
		"workload", "metric", "parent", "[q1 .. q3]", "change", "[q1 .. q3]", "worse", "bound", "verdict")
	regressions := 0
	for _, wl := range workloads {
		for _, def := range bounded() {
			p, c := parent.values[wl.name][def.name], change.values[wl.name][def.name]
			worse, v := judge(def, p, c)
			if v == verdictMissing {
				continue
			}
			if v == verdictRegression {
				regressions++
			}
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-14s %-22s %10.4g [%9.4g .. %-9.4g] %10.4g [%9.4g .. %-9.4g] %+7.1f%% %6.0f%%  %s\n",
				wl.name, def.name, pm, pq1, pq3, cm, cq1, cq3, worse*100, def.bound*100, v)
		}
		pa, ca := parent.attempted[wl.name], change.attempted[wl.name]
		if pa > 0 && ca > 0 {
			ps, cs := float64(parent.failed[wl.name])/float64(pa), float64(change.failed[wl.name])/float64(ca)
			v := verdictOK
			if cs > ps {
				v = verdictRegression
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-22s %10.4g %21s %10.4g %21s %8s %7s  %s\n", wl.name, "failed_share", ps, "", cs, "", "", "", v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}

func short(commit string) string {
	if len(commit) > 10 {
		return commit[:10]
	}
	return commit
}

// printSets summarises K sets of runs: per workload and metric the median,
// the quartiles and the interquartile spread as a share of the median — the
// figure each bound has to clear.
func printSets(w io.Writer, runs []*result) {
	for _, traced := range []bool{false, true} {
		s := collect(runs, traced)
		defs := bounded()
		if traced {
			defs = perLayer
		}
		for _, wl := range workloads {
			vals := s.values[wl.name]
			if len(vals) == 0 {
				continue
			}
			fmt.Fprintf(w, "\n== %s · %d runs · traced %v\n", wl.name, len(vals[defs[0].name]), traced)
			for _, def := range defs {
				v := vals[def.name]
				if len(v) == 0 {
					continue
				}
				q1, m, q3 := quartiles(v)
				note := ""
				if def.bound > 0 && spread(v) > def.bound {
					note = "  spread exceeds bound"
				}
				fmt.Fprintf(w, "  %-30s %12.5g %-8s [%10.5g .. %-10.5g] spread %5.1f%%%s\n", def.name, m, def.unit, q1, q3, spread(v)*100, note)
			}
		}
	}
}

// printDerived relates a workload's traced run to its untraced one: how
// closely the replica's generation matches the daemon's period, and how
// much of a query's latency is spent outside the handler.
func printDerived(w io.Writer, runs []*result) {
	e2e, layer := collect(runs, false), collect(runs, true)
	for _, wl := range workloads {
		ev, lv := e2e.values[wl.name], layer.values[wl.name]
		if len(ev) == 0 || len(lv) == 0 {
			continue
		}
		gap := median(lv["darkvecd.generation_s"]) / median(ev["generation_period_s"])
		overhead := median(ev["classify_p50_ms"])*1e3 - median(lv["apiserver.classify_us"])
		fmt.Fprintf(w, "\n== %s · derived from both runs\n", wl.name)
		fmt.Fprintf(w, "  %-36s %14.6g ratio\n", "darkvecd.replica_gap_ratio", gap)
		fmt.Fprintf(w, "  %-36s %14.6g us\n", "darkvecd.http_overhead_us", overhead)
		if gap < 0.85 || gap > 1.15 {
			fmt.Fprintf(w, "  note: the replica's generation is %.0f%% of the daemon's period; outside 85–115%% the replica no longer describes the daemon on this workload\n", gap*100)
		}
	}
}
