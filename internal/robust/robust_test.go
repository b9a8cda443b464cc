package robust

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestStrictBudget(t *testing.T) {
	var rep IngestReport
	b := Budget{}
	if !b.Strict() {
		t.Fatal("zero budget must be strict")
	}
	err := rep.Skip(b, errors.New("bad line"))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("strict skip error = %v", err)
	}
}

func TestAbsoluteCap(t *testing.T) {
	var rep IngestReport
	b := Budget{MaxErrors: 2}
	for i := 0; i < 2; i++ {
		if err := rep.Skip(b, errors.New("x")); err != nil {
			t.Fatalf("skip %d within budget: %v", i, err)
		}
	}
	if err := rep.Skip(b, errors.New("x")); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("third skip should blow MaxErrors=2, got %v", err)
	}
}

func TestRateBudgetRespectsMinSample(t *testing.T) {
	var rep IngestReport
	b := Budget{MaxRate: 0.01, MinSample: 100}
	// A bad first record must not abort before MinSample records are seen.
	if err := rep.Skip(b, errors.New("early junk")); err != nil {
		t.Fatalf("early skip aborted: %v", err)
	}
	rep.read.Add(98) // 1 skipped of 99 seen: still under sample threshold
	if err := rep.Skip(b, errors.New("second")); err == nil {
		// 2/100 = 2% > 1% at exactly MinSample: must abort.
		t.Fatal("rate over budget at MinSample must abort")
	}
}

func TestRateBudgetUnderThreshold(t *testing.T) {
	var rep IngestReport
	rep.read.Add(10_000)
	b := DefaultBudget()
	for i := 0; i < 50; i++ { // 50/10050 ≈ 0.5% < 1%
		if err := rep.Skip(b, errors.New("sporadic")); err != nil {
			t.Fatalf("skip %d under budget aborted: %v", i, err)
		}
	}
}

func TestSampleErrorsCapped(t *testing.T) {
	var rep IngestReport
	rep.read.Add(1 << 20)
	b := DefaultBudget()
	for i := 0; i < 100; i++ {
		if err := rep.Skip(b, errors.New("e")); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.Errors(); len(got) != MaxSampleErrors {
		t.Fatalf("kept %d sample errors, want %d", len(got), MaxSampleErrors)
	}
}

func TestReportString(t *testing.T) {
	var rep IngestReport
	rep.read.Add(10)
	if !rep.Clean() {
		t.Fatal("untouched report must be clean")
	}
	if err := rep.Skip(Budget{MaxErrors: 5}, errors.New("bad ts")); err != nil {
		t.Fatal(err)
	}
	rep.Truncate(errors.New("cut off"))
	if rep.Clean() {
		t.Fatal("skips/truncation must mark the report dirty")
	}
	s := rep.String()
	for _, want := range []string{"10 records read", "1 skipped", "truncated", "bad ts", "cut off"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSnapshot(t *testing.T) {
	var rep IngestReport
	rep.read.Add(7)
	_ = rep.Skip(Budget{MaxErrors: 10}, errors.New("junk"))
	rep.Truncate(errors.New("cut"))
	snap := rep.Snapshot()
	if snap.Read != 7 || snap.Skipped != 1 || !snap.Truncated || len(snap.Errors) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The snapshot is a copy: further mutation must not leak into it.
	rep.Record()
	if snap.Read != 7 {
		t.Fatal("snapshot aliases the live report")
	}
}

// TestConcurrentRecord hammers one shared report from many goroutines —
// the live-ingestion shape, where every TCP source Records, Skips and
// reads counters against the same Budget. Run under -race; the final
// totals must be exact.
func TestConcurrentRecord(t *testing.T) {
	const (
		goroutines = 16
		perG       = 2_000
		skipsPerG  = 50
	)
	var rep IngestReport
	b := Budget{MaxErrors: goroutines*skipsPerG + 1}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rep.Record()
				if i < skipsPerG {
					if err := rep.Skip(b, fmt.Errorf("g%d bad line %d", g, i)); err != nil {
						t.Errorf("skip within budget blew: %v", err)
						return
					}
				}
				// Concurrent readers must be race-free with the writers.
				_ = rep.ErrorRate()
				_ = rep.Clean()
				if i%500 == 0 {
					_ = rep.String()
					_ = rep.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := rep.Read(); got != goroutines*perG {
		t.Fatalf("read = %d, want %d", got, goroutines*perG)
	}
	if got := rep.Skipped(); got != goroutines*skipsPerG {
		t.Fatalf("skipped = %d, want %d", got, goroutines*skipsPerG)
	}
	if got := rep.Errors(); len(got) != MaxSampleErrors {
		t.Fatalf("sample errors = %d, want %d", len(got), MaxSampleErrors)
	}
}

// TestConcurrentBudgetBlow: when concurrent skips exhaust a shared budget,
// at least one goroutine must observe ErrBudgetExceeded and the skip count
// must never under-report.
func TestConcurrentBudgetBlow(t *testing.T) {
	var rep IngestReport
	b := Budget{MaxErrors: 100}
	var wg sync.WaitGroup
	blew := make(chan struct{}, 64)
	const goroutines, perG = 8, 40 // 320 skips >> 100 budget
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := rep.Skip(b, errors.New("bad")); errors.Is(err, ErrBudgetExceeded) {
					select {
					case blew <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-blew:
	default:
		t.Fatal("no goroutine observed the blown budget")
	}
	if got := rep.Skipped(); got != goroutines*perG {
		t.Fatalf("skipped = %d, want %d", got, goroutines*perG)
	}
}
