// Command bench is the repository benchmark: four operator-path workloads
// driven against the real darkvecd binary over its wire interfaces, plus a
// traced in-process replica that attributes time to layers. See README.md.
//
//	go run -C bench . -seed 1                      every workload, untraced then traced
//	go run -C bench . -workload live-steady -trace 0
//	go run -C bench . -sets 5 -out new.json        alternating sets, median and quartiles
//	go run -C bench . -compare old.json new.json   apply the bounds
//
// The acceptance driver runs
//
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// environment is what every run of one invocation shares: where the
// repository is, the daemon binary built from it, and the scratch root that
// is removed on exit.
type environment struct {
	root      string // repository checkout
	benchDir  string // root/bench
	tmp       string // scratch root under bench/out, removed on exit
	daemonBin string
	buildS    float64
}

func main() {
	code := 0
	defer func() { os.Exit(code) }()
	defer killAll()
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
}

func mainErr() error {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", refSeconds, "run length the timed windows are scaled to")
		traceMode    = flag.Int("trace", -1, "0 = end-to-end metrics against the daemon, 1 = per-layer metrics from the traced replica (default: both)")
		quick        = flag.Bool("quick", false, "smoke mode: timed windows ÷ 5, no bounds or sample-count checks, marked quick in the output")
		sets         = flag.Int("sets", 1, "run this many alternating sets and report median and quartiles per metric")
		out          = flag.String("out", "", "also write the results to this file (the input of -compare)")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: bench -compare old.json new.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		return fmt.Errorf("invalid -seconds %d", *seconds)
	}
	if *quick {
		*seconds = max(1, *seconds/5)
	}
	run := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		run = []workload{w}
	}
	modes := []bool{false, true}
	if *traceMode == 0 || *traceMode == 1 {
		modes = []bool{*traceMode == 1}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := prepare(ctx)
	if err != nil {
		return err
	}
	defer os.RemoveAll(env.tmp)

	rep := newReport(env, *seed, *seconds, *quick)
	fmt.Printf("bench: commit %s%s, %d CPUs, GOMAXPROCS %d, %s, seed %d, %d s windows, daemon built in %.2f s\n",
		rep.Commit, map[bool]string{true: " (dirty)"}[rep.Dirty], rep.NumCPU, rep.GoMaxProcs, rep.GoVersion, *seed, *seconds, env.buildS)
	var last *result
	for set := 0; set < *sets; set++ {
		for _, traced := range modes {
			for _, w := range run {
				if err := ctx.Err(); err != nil {
					return err
				}
				var res *result
				if traced {
					res, err = runReplica(ctx, env, w, *seed, *seconds)
				} else {
					res, err = runLifecycle(ctx, env, w, *seed, *seconds)
				}
				if err != nil {
					return err
				}
				if *quick {
					// Smoke mode proves the plumbing; its windows are too
					// short for the sample-count checks to mean anything.
					res.Correct, res.Checks = res.Failed == 0, nil
				}
				if err := complete(res); err != nil {
					return err
				}
				printResult(res)
				rep.Runs = append(rep.Runs, res)
				last = res
			}
		}
	}
	if *sets > 1 {
		printSets(os.Stdout, rep.Runs)
	}
	if len(modes) == 2 {
		printDerived(os.Stdout, rep.Runs)
	}
	if err := rep.save(env, *out); err != nil {
		return err
	}
	bad := 0
	for _, r := range rep.Runs {
		if !r.Correct {
			bad++
		}
	}
	// The driver's contract: one JSON object on the last line. With a
	// single (workload, mode) run that is the run itself; otherwise a
	// summary over every run made.
	if len(rep.Runs) == 1 {
		fmt.Println(driverLine(last))
	} else {
		b, _ := json.Marshal(map[string]any{"correct": bad == 0, "runs": len(rep.Runs), "incorrect_runs": bad})
		fmt.Println(string(b))
	}
	if bad > 0 && !*quick {
		return fmt.Errorf("%d of %d runs failed an output check", bad, len(rep.Runs))
	}
	return nil
}

// prepare locates the checkout, builds the daemon from it and creates the
// scratch root. Everything the benchmark writes lives under bench/out.
func prepare(ctx context.Context) (*environment, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := ""
	for _, cand := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(cand, "cmd", "darkvecd", "main.go")); err == nil {
			root = cand
			break
		}
	}
	if root == "" {
		return nil, fmt.Errorf("no darkvec checkout at or above %s: the benchmark builds cmd/darkvecd from source", wd)
	}
	env := &environment{root: root, benchDir: filepath.Join(root, "bench")}
	outDir := filepath.Join(env.benchDir, "out")
	if err := os.MkdirAll(filepath.Join(outDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	env.daemonBin = filepath.Join(outDir, "bin", "darkvecd")
	start := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", env.daemonBin, "./cmd/darkvecd")
	build.Dir = root
	if b, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/darkvecd: %v\n%s", err, b)
	}
	env.buildS = time.Since(start).Seconds()
	if env.tmp, err = os.MkdirTemp(outDir, "run-"); err != nil {
		return nil, err
	}
	return env, nil
}

// report is one invocation: provenance plus every run made. It is the
// -out/-compare file format and one line of results/trajectory.jsonl.
type report struct {
	Commit     string    `json:"commit"`
	Dirty      bool      `json:"dirty"`
	NumCPU     int       `json:"num_cpu"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Kernel     string    `json:"kernel"`
	UnixTime   int64     `json:"unix_time"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Quick      bool      `json:"quick,omitempty"`
	BuildS     float64   `json:"build_s"`
	Runs       []*result `json:"runs"`
}

func newReport(env *environment, seed uint64, seconds int, quick bool) *report {
	rep := &report{
		Commit: "unknown", NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), UnixTime: time.Now().Unix(),
		Seed: seed, Seconds: seconds, Quick: quick, BuildS: env.buildS,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		rep.Kernel = strings.TrimSpace(string(b))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = env.root
		b, err := cmd.Output()
		return strings.TrimSpace(string(b)), err
	}
	if c, err := git("rev-parse", "HEAD"); err == nil {
		rep.Commit = c
		// The trajectory is appended by the benchmark itself; it must not
		// make every later run look dirty.
		s, _ := git("status", "--porcelain", "--", ".", ":!bench/results")
		rep.Dirty = s != ""
	}
	return rep
}

// save appends the invocation to the trajectory (never overwriting earlier
// runs) and, when asked, writes it as a standalone file for -compare.
func (rep *report) save(env *environment, out string) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !rep.Quick {
		dir := filepath.Join(env.benchDir, "results")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(filepath.Join(dir, "trajectory.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if out != "" {
		return os.WriteFile(out, append(line, '\n'), 0o644)
	}
	return nil
}

// printResult lists every metric of a run by name with its unit, then the
// explanatory detail, then any failed check.
func printResult(r *result) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced replica)"
	}
	fmt.Printf("\n== %s · %s · seed %d · attempted %d failed %d · correct %v\n", r.Workload, mode, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, name := range sortedKeys(r.Metrics) {
		fmt.Printf("  %-36s %14.6g %s\n", name, r.Metrics[name], unitOf(name))
	}
	if len(r.Watched) > 0 {
		fmt.Println("  watched (bounded by -compare, not declared in BENCHMARK.json):")
	}
	for _, name := range sortedKeys(r.Watched) {
		fmt.Printf("  %-36s %14.6g %s\n", name, r.Watched[name], unitOf(name))
	}
	for _, name := range sortedKeys(r.Detail) {
		fmt.Printf("  · %-34s %14.6g\n", name, r.Detail[name])
	}
	for _, c := range r.Checks {
		fmt.Printf("  CHECK FAILED: %s\n", c)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// complete verifies that a run produced exactly the metrics declared for its
// mode: the driver refuses a result with a metric missing or undeclared.
func complete(r *result) error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", r.Workload, d.name, v)
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics measured, %d declared", r.Workload, len(r.Metrics), len(defs))
	}
	if !r.Traced {
		for _, d := range watched {
			if _, ok := r.Watched[d.name]; !ok {
				return fmt.Errorf("%s: watched metric %s was not measured", r.Workload, d.name)
			}
		}
	}
	return nil
}

// driverLine renders a run as the one-line JSON object the acceptance
// driver parses.
func driverLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = mv{Value: v, Unit: unitOf(name)}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": max(1, r.Attempted), "failed": r.Failed, "metrics": metrics,
	})
	return string(b)
}
