package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/w2v"
)

// baseOpts is a fast, valid configuration for tests.
func baseOpts(in, feeds string) options {
	return options{
		in: in, feedsDir: feeds, mode: "both", servKind: "domain",
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

func TestRunClassifyOnlyWithoutFeeds(t *testing.T) {
	tracePath, _ := writeDataset(t)
	// Without feeds, the Mirai fingerprint still provides one GT class.
	o := baseOpts(tracePath, "")
	o.mode, o.servKind, o.epochs = "classify", "auto", 1
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
	o = baseOpts(tracePath, "")
	o.resume = true
	if err := run(ctx, o); err == nil {
		t.Fatal("-resume without -checkpoint must fail")
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
	o.mode, o.servFile, o.epochs = "classify", svcPath, 1
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
	o.mode, o.epochs = "classify", 1
	if err := run(ctx, o); err == nil {
		t.Fatal("strict ingest of a dirty trace must fail")
	}
	o.maxErr = 5
	if err := run(ctx, o); err != nil {
		t.Fatalf("tolerant ingest failed: %v", err)
	}
}

// TestRunCheckpointConsumed: a completed run removes its checkpoint file.
func TestRunCheckpointConsumed(t *testing.T) {
	tracePath, _ := writeDataset(t)
	o := baseOpts(tracePath, "")
	o.mode, o.epochs = "classify", 1
	o.checkpoint = filepath.Join(t.TempDir(), "train.ck")
	o.resume = true // missing checkpoint: trains from scratch
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(o.checkpoint); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not consumed: %v", err)
	}
}

// TestVerifyCommand: -verify accepts an intact saved model, reports its
// shape and checksum status, and rejects the same file after a bit flip.
func TestVerifyCommand(t *testing.T) {
	tracePath, _ := writeDataset(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	o := baseOpts(tracePath, "")
	o.mode = "classify"
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
