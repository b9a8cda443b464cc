package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/trace"
)

func TestRunWritesAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "trace.csv")
	pcapPath := filepath.Join(dir, "trace.pcap")
	feedsDir := filepath.Join(dir, "feeds")
	if err := run(options{
		out: csvPath, pcapOut: pcapPath, feedsDir: feedsDir,
		days: 3, scale: 0.01, rate: 0.05, seed: 7,
	}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, _, err := trace.ReadCSV(f, robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || tr.Days() != 3 {
		t.Fatalf("trace: %d events, %d days", tr.Len(), tr.Days())
	}

	pf, err := os.Open(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	ptr, rep, err := trace.ReadPCAP(pf, robust.Budget{})
	if err != nil || rep.Skipped() != 0 || rep.Truncated() {
		t.Fatalf("pcap: %v, %s", err, rep)
	}
	if ptr.Len() != tr.Len() {
		t.Fatalf("pcap events %d != csv events %d", ptr.Len(), tr.Len())
	}

	feeds, err := os.ReadDir(feedsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) < 8 {
		t.Fatalf("feeds written: %d", len(feeds))
	}
}

func TestRunSkipsUnrequestedOutputs(t *testing.T) {
	if err := run(options{days: 2, scale: 0.005, rate: 0.05, seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadPath(t *testing.T) {
	o := options{out: "/nonexistent-dir/x.csv", days: 2, scale: 0.005, rate: 0.05, seed: 1}
	if err := run(o); err == nil {
		t.Fatal("unwritable path must fail")
	}
}

func TestRunAttackOverlay(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "trace.csv")
	base := options{out: csvPath, days: 2, scale: 0.005, rate: 0.05, seed: 1}
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	clean := readTrace(t, csvPath)

	atk := base
	atk.attack, atk.attackers, atk.attackPPS, atk.attackDays = "sybil", 50, 12, 1
	if err := run(atk); err != nil {
		t.Fatal(err)
	}
	poisoned := readTrace(t, csvPath)
	if poisoned.Len() <= clean.Len() {
		t.Fatalf("attack overlay added no events: %d vs %d", poisoned.Len(), clean.Len())
	}
	// The overlay starts at the base trace's end, so it must extend the span.
	if poisoned.Days() <= clean.Days() {
		t.Fatalf("attack days %d, clean days %d", poisoned.Days(), clean.Days())
	}

	bad := base
	bad.attack = "teleport"
	if err := run(bad); err == nil {
		t.Fatal("unknown attack kind must fail")
	}
}

func readTrace(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, _, err := trace.ReadCSV(f, robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
