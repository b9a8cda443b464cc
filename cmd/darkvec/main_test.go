package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/robust/faultio"
	"github.com/darkvec/darkvec/internal/w2v"
)

// baseOpts is a fast, valid configuration for tests.
func baseOpts(in, feeds string) options {
	return options{
		in: in, feedsDir: feeds, servKind: "domain",
		dim: 16, window: 8, epochs: 2, k: 7, kPrime: 3, seed: 1, evalDays: 1,
	}
}

// writeDataset materialises a small trace + feeds directory on disk.
func writeDataset(t *testing.T) (tracePath, feedsDir string) {
	t.Helper()
	out := darksim.Generate(darksim.Config{Seed: 6, Days: 4, Scale: 0.01, Rate: 0.05})
	dir := t.TempDir()
	tracePath = filepath.Join(dir, "trace.csv")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Trace.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	feedsDir = filepath.Join(dir, "feeds")
	if err := os.MkdirAll(feedsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for class, ips := range out.Feeds {
		ff, err := os.Create(filepath.Join(feedsDir, class+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if err := labels.WriteFeed(ff, ips); err != nil {
			t.Fatal(err)
		}
		ff.Close()
	}
	return tracePath, feedsDir
}

func TestRunBothModes(t *testing.T) {
	tracePath, feedsDir := writeDataset(t)
	modelPath := filepath.Join(t.TempDir(), "model.bin")
	o := baseOpts(tracePath, feedsDir)
	o.modelOut = modelPath
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	// The model file must be loadable.
	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := w2v.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vocab.Size() == 0 || m.Dim() != 16 {
		t.Fatalf("model: vocab %d, dim %d", m.Vocab.Size(), m.Dim())
	}
}

func TestRunWithoutFeeds(t *testing.T) {
	tracePath, _ := writeDataset(t)
	// Without feeds, the Mirai fingerprint still provides one GT class.
	o := baseOpts(tracePath, "")
	o.servKind, o.epochs = "auto", 1
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, baseOpts("/missing.csv", "")); err == nil {
		t.Fatal("missing trace must fail")
	}
	tracePath, _ := writeDataset(t)
	if err := run(ctx, baseOpts(tracePath, "/missing-feeds")); err == nil {
		t.Fatal("missing feeds dir must fail")
	}
	o := baseOpts(tracePath, "")
	o.servKind = "bogus-services"
	if err := run(ctx, o); err == nil {
		t.Fatal("bad service kind must fail")
	}
}

func TestRunWithCustomServiceFile(t *testing.T) {
	ctx := context.Background()
	tracePath, _ := writeDataset(t)
	svcPath := filepath.Join(t.TempDir(), "plant.json")
	doc := `{"telnetish": ["23/tcp", "2323/tcp"], "adb": ["5555/tcp"]}`
	if err := os.WriteFile(svcPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOpts(tracePath, "")
	o.servFile, o.epochs = svcPath, 1
	if err := run(ctx, o); err != nil {
		t.Fatal(err)
	}
	// Malformed map must fail.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"x": ["nope"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o.servFile = bad
	if err := run(ctx, o); err == nil {
		t.Fatal("bad service file must fail")
	}
}

// TestRunTolerantIngest: garbage rows abort a strict run but are skipped
// under -maxerr.
func TestRunTolerantIngest(t *testing.T) {
	ctx := context.Background()
	tracePath, _ := writeDataset(t)
	clean, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(clean), "\n")
	mid := len(lines) / 2
	dirtyPath := filepath.Join(t.TempDir(), "dirty.csv")
	dirty := strings.Join(lines[:mid], "") + "garbage,row\n" + strings.Join(lines[mid:], "")
	if err := os.WriteFile(dirtyPath, []byte(dirty), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOpts(dirtyPath, "")
	o.epochs = 1
	if err := run(ctx, o); err == nil {
		t.Fatal("strict ingest of a dirty trace must fail")
	}
	o.maxErr = 5
	if err := run(ctx, o); err != nil {
		t.Fatalf("tolerant ingest failed: %v", err)
	}
}

// TestValidateFlags: every nonsensical flag value is refused before the
// trace is read — run on a missing trace reports the flag, not the file.
func TestValidateFlags(t *testing.T) {
	good := baseOpts("trace.csv", "")
	if err := good.validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*options)
		want   string
	}{
		{"zero dim", func(o *options) { o.dim = 0 }, "invalid -dim 0: must be > 0"},
		{"negative window", func(o *options) { o.window = -1 }, "invalid -window -1: must be > 0"},
		{"zero epochs", func(o *options) { o.epochs = 0 }, "invalid -epochs 0: must be > 0"},
		{"negative epochs", func(o *options) { o.epochs = -3 }, "invalid -epochs -3: must be > 0"},
		{"zero k", func(o *options) { o.k = 0 }, "invalid -k 0: must be > 0"},
		{"zero kprime", func(o *options) { o.kPrime = 0 }, "invalid -kprime 0: must be > 0"},
		{"zero evaldays", func(o *options) { o.evalDays = 0 }, "invalid -evaldays 0: must be > 0"},
		{"negative maxerr", func(o *options) { o.maxErr = -1 }, "invalid -maxerr -1: must be >= 0"},
	}
	for _, tc := range cases {
		o := baseOpts("/missing.csv", "")
		tc.mutate(&o)
		if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run = %v, want %q", tc.name, err, tc.want)
		}
	}

	// The training-state flags and -mode are gone, not ignored.
	for _, args := range [][]string{{"-checkpoint", "x"}, {"-resume"}, {"-mode", "both"}} {
		fs := flag.NewFlagSet("darkvec", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		new(options).register(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v parsed; the flag must not exist", args)
		}
	}
}

// dirNames lists a directory, for "nothing new was left behind" checks.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestRunInterruptedLeavesNothing: a run cancelled mid-train fails with
// the context's error, says so, and writes no file — the model that was
// at -model before is untouched.
func TestRunInterruptedLeavesNothing(t *testing.T) {
	tracePath, _ := writeDataset(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	old := []byte("the previous good model")
	if err := os.WriteFile(modelPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirNames(t, dir)

	// An epoch budget no run finishes: ingest of this trace takes a few
	// milliseconds, so the cancel lands mid-train; were it to land earlier
	// the outcome asserted below is the same.
	o := baseOpts(tracePath, "")
	o.epochs, o.modelOut = 1<<20, modelPath
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(200*time.Millisecond, cancel).Stop()
	printed := captureStdout(t, func() {
		if err := run(ctx, o); !errors.Is(err, context.Canceled) {
			t.Errorf("interrupted run = %v, want context.Canceled", err)
		}
	})
	if !strings.Contains(printed, "training interrupted; nothing written") {
		t.Errorf("stdout lacks the interruption line:\n%s", printed)
	}
	if after := dirNames(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("directory changed: %v -> %v", before, after)
	}
	if got, err := os.ReadFile(modelPath); err != nil || !bytes.Equal(got, old) {
		t.Errorf("previous model disturbed: %q, %v", got, err)
	}
}

// TestModelSaveAtomic: a write that fails part-way through -model leaves
// the previous file byte-identical and no temporary sibling behind.
func TestModelSaveAtomic(t *testing.T) {
	tracePath, _ := writeDataset(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	o := baseOpts(tracePath, "")
	o.epochs, o.modelOut = 1, modelPath
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}

	diskFull := errors.New("no space left on device")
	o.seed = 2 // a different model, so an in-place overwrite would show
	o.saveWrap = func(w io.Writer) io.Writer { return faultio.ErrWriterAfter(w, 4096, diskFull) }
	if err := run(context.Background(), o); !errors.Is(err, diskFull) {
		t.Fatalf("run with a failing model write = %v, want %v", err, diskFull)
	}
	if got, err := os.ReadFile(modelPath); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("previous model disturbed (%d bytes, want %d): %v", len(got), len(good), err)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"model.bin"}) {
		t.Fatalf("leftovers beside the model: %v", names)
	}

	// The same path accepts the next good save.
	o.saveWrap = nil
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(modelPath); err != nil || bytes.Equal(got, good) {
		t.Fatalf("a successful save did not replace the model: %v", err)
	}
}

// TestVerifyCommand: -verify accepts an intact saved model, reports its
// shape and checksum status, and rejects the same file after a bit flip.
func TestVerifyCommand(t *testing.T) {
	tracePath, _ := writeDataset(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	o := baseOpts(tracePath, "")
	o.modelOut = modelPath
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}

	var report strings.Builder
	if err := runVerify(&report, modelPath); err != nil {
		t.Fatalf("verify of intact model = %v", err)
	}
	got := report.String()
	if !strings.Contains(got, "model") || !strings.Contains(got, "checksum OK") {
		t.Fatalf("verify report = %q", got)
	}

	b, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut exactly at the footer boundary: where a torn save stops.
	torn := filepath.Join(dir, "torn.bin")
	if err := os.WriteFile(torn, b[:len(b)-robust.FooterSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runVerify(&report, torn); !errors.Is(err, robust.ErrChecksum) {
		t.Fatalf("verify of a footer-less model = %v, want ErrChecksum", err)
	}

	b[len(b)/2] ^= 0x20
	flipped := filepath.Join(dir, "flipped.bin")
	if err := os.WriteFile(flipped, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runVerify(&report, flipped); err == nil {
		t.Fatal("verify must reject a bit-flipped model")
	}

	if err := runVerify(&report, filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("verify must fail on a missing file")
	}
}
