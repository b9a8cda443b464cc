// Package robust is the pipeline-wide resilience layer: error budgets and
// structured ingest reports for tolerant trace ingestion, and HTTP
// middleware (panic recovery, per-request timeouts, load shedding, a
// readiness gate) for the serving path. Real darknet captures routinely
// contain truncated or garbage records; the ingest side of this package
// lets readers skip and count malformed input instead of aborting a
// month-long run, while still failing fast when corruption is pervasive
// enough to make the data untrustworthy.
package robust

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrBudgetExceeded marks an ingest run aborted because malformed records
// outnumbered the configured tolerance. Use errors.Is to detect it.
var ErrBudgetExceeded = errors.New("robust: error budget exceeded")

// Budget caps how much malformed input an ingest run tolerates. The zero
// value is strict: the first malformed record aborts. A non-strict budget
// skips and counts bad records, aborting only when MaxErrors (absolute) or
// MaxRate (fraction of records seen so far) is exceeded. A Budget is
// immutable once constructed and therefore safe to share across the
// concurrent sources of a live ingest pipeline.
type Budget struct {
	// MaxErrors is the absolute cap on skipped records; 0 means no
	// absolute cap when MaxRate is set.
	MaxErrors int64
	// MaxRate is the tolerated fraction skipped/(read+skipped), checked
	// once MinSample records have been seen so a bad first line does not
	// abort a clean billion-line trace. 0 means only MaxErrors governs.
	MaxRate float64
	// MinSample is the number of records before MaxRate is enforced
	// (default 100 when MaxRate > 0).
	MinSample int64
}

// DefaultBudget tolerates up to 1% malformed records, judged after the
// first 100 — the operating point for routinely-dirty darknet captures.
func DefaultBudget() Budget { return Budget{MaxRate: 0.01, MinSample: 100} }

// Strict reports whether the budget tolerates nothing.
func (b Budget) Strict() bool { return b.MaxErrors <= 0 && b.MaxRate <= 0 }

// blown reports whether rep has exhausted the budget.
func (b Budget) blown(rep *IngestReport) bool {
	if b.Strict() {
		return rep.Skipped() > 0
	}
	if b.MaxErrors > 0 && rep.Skipped() > b.MaxErrors {
		return true
	}
	if b.MaxRate > 0 {
		minSample := b.MinSample
		if minSample <= 0 {
			minSample = 100
		}
		if n := rep.Read() + rep.Skipped(); n >= minSample && rep.ErrorRate() > b.MaxRate {
			return true
		}
	}
	return false
}

// MaxSampleErrors is how many distinct error messages an IngestReport
// retains verbatim; further errors are only counted.
const MaxSampleErrors = 5

// IngestReport is the structured outcome of one tolerant ingest pass:
// how much was read, how much was skipped and why, and whether the input
// ended mid-record (a truncated tail, tolerable on its own). All methods
// are safe for concurrent use — a live pipeline's sources share one report
// (and one Budget) and hammer it from many goroutines — so the counters
// are atomics and the error samples are mutex-guarded. Because of that an
// IngestReport must not be copied once used; pass *IngestReport around and
// take a Snapshot when a plain value (JSON, logs) is needed.
type IngestReport struct {
	read      atomic.Int64
	skipped   atomic.Int64
	truncated atomic.Bool

	mu     sync.Mutex
	errors []string
}

// IngestStats is a point-in-time copy of an IngestReport: a plain value
// for JSON endpoints and log lines.
type IngestStats struct {
	Read      int64    `json:"read"`
	Skipped   int64    `json:"skipped"`
	Truncated bool     `json:"truncated,omitempty"`
	Errors    []string `json:"errors,omitempty"`
}

// Record counts one successfully parsed record.
func (r *IngestReport) Record() { r.read.Add(1) }

// Read returns the number of records successfully parsed so far.
func (r *IngestReport) Read() int64 { return r.read.Load() }

// Skipped returns the number of malformed records dropped so far.
func (r *IngestReport) Skipped() int64 { return r.skipped.Load() }

// Truncated reports whether the input ended inside a record (the intact
// prefix was kept).
func (r *IngestReport) Truncated() bool { return r.truncated.Load() }

// Errors returns a copy of the first MaxSampleErrors error messages.
func (r *IngestReport) Errors() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.errors...)
}

// Skip records one malformed record and returns a non-nil
// ErrBudgetExceeded-wrapping error when the budget is exhausted.
func (r *IngestReport) Skip(b Budget, err error) error {
	r.skipped.Add(1)
	r.mu.Lock()
	if len(r.errors) < MaxSampleErrors {
		r.errors = append(r.errors, err.Error())
	}
	r.mu.Unlock()
	if b.blown(r) {
		return fmt.Errorf("%w (%d/%d records malformed): %v", ErrBudgetExceeded, r.Skipped(), r.Read()+r.Skipped(), err)
	}
	return nil
}

// Truncate records that the input ended mid-record: the report keeps the
// error message and flags the truncation, and ingestion of the intact
// prefix is considered successful.
func (r *IngestReport) Truncate(err error) {
	r.truncated.Store(true)
	if err != nil {
		r.mu.Lock()
		if len(r.errors) < MaxSampleErrors {
			r.errors = append(r.errors, err.Error())
		}
		r.mu.Unlock()
	}
}

// ErrorRate is skipped/(read+skipped); 0 for an empty report.
func (r *IngestReport) ErrorRate() float64 {
	read, skipped := r.Read(), r.Skipped()
	n := read + skipped
	if n == 0 {
		return 0
	}
	return float64(skipped) / float64(n)
}

// Snapshot returns a consistent-enough point-in-time copy for JSON and
// logging. Counters are read individually, so a snapshot taken mid-flight
// may be off by in-flight records — exact once the sources have stopped.
func (r *IngestReport) Snapshot() IngestStats {
	return IngestStats{
		Read:      r.Read(),
		Skipped:   r.Skipped(),
		Truncated: r.Truncated(),
		Errors:    r.Errors(),
	}
}

// String renders the one-line operator summary every cmd prints.
func (r *IngestReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ingest: %d records read", r.Read())
	if skipped := r.Skipped(); skipped > 0 {
		fmt.Fprintf(&sb, ", %d skipped (%.2f%%)", skipped, r.ErrorRate()*100)
	}
	if r.Truncated() {
		sb.WriteString(", input truncated mid-record")
	}
	if errs := r.Errors(); len(errs) > 0 {
		fmt.Fprintf(&sb, "; first errors: %s", strings.Join(errs, " | "))
	}
	return sb.String()
}
