package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span that
// caused it (-1 for a root); ID groups the spans of one generation or one
// request.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	ID         int64
}

// recorder keeps spans and counts in memory for one traced run and writes
// them out when the run ends. It is driven from a single goroutine: nesting
// is tracked with a stack, so a span begun while another is open becomes its
// child. A nil recorder records nothing, which is how the same replica code
// runs untraced for the tracing-overhead comparison.
type recorder struct {
	epoch  time.Time
	spans  []span
	stack  []int
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]float64{}}
}

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string, id int64) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, ID: id})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = time.Since(r.epoch)
	r.stack = r.stack[:len(r.stack)-1]
}

// do times fn as one span.
func (r *recorder) do(name string, id int64, fn func()) {
	i := r.begin(name, id)
	fn()
	r.end(i)
}

// set records a named count or gauge (sizes, ratios, last-seen values);
// counts are taken at the same boundaries as spans, so ratios are measured
// where the work happens.
func (r *recorder) set(name string, v float64) {
	if r == nil {
		return
	}
	r.counts[name] = v
}

// seconds returns the duration of every span with the given name.
func (r *recorder) seconds(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other (spans
// recorded from concurrent work), so the covered part is the union of their
// intervals clipped to the parent, not the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// spanSumRatio is Σ self time of every descendant of the named root spans
// divided by Σ root duration: how much of the composed operation the
// layer spans account for. The root's own self time is the unattributed
// glue, so the ratio is 1 − glue share.
func (r *recorder) spanSumRatio(root string) float64 {
	if r == nil {
		return 0
	}
	self := selfTimes(r.spans)
	var rootDur, glue time.Duration
	for i, s := range r.spans {
		if s.Name == root {
			rootDur += s.End - s.Start
			glue += self[i]
		}
	}
	if rootDur == 0 {
		return 0
	}
	return 1 - glue.Seconds()/rootDur.Seconds()
}

// writeChrome stores the spans as Chrome trace-event JSON (open with
// chrome://tracing or https://ui.perfetto.dev). The layer — the span name up
// to its first dot — becomes the thread, so each layer gets its own track.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		tid, ok := tids[layer]
		if !ok {
			tid = len(tids) + 1
			tids[layer] = tid
		}
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"span": i, "parent": s.Parent, "id": s.ID},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "counts": r.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
