package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// TestModelInvariances: edits to a trace that DarkVec's definition ignores
// leave the generation unchanged — the same model bytes and the same
// cluster assignment. The eval day is the last day of each edited trace.
func TestModelInvariances(t *testing.T) {
	out := smallSim(t)
	cfg := fastCfg()
	gt := labels.Build(out.Trace, out.Feeds)
	generate := func(t *testing.T, tr *trace.Trace) ([]byte, []int) {
		t.Helper()
		g, err := Generate(tr.Cut(cfg.MinPackets), 1, gt, cfg, TrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return modelBytes(t, g.Emb.Model), g.View.Assign
	}
	edit := func(f func(e *trace.Event)) *trace.Trace {
		events := slices.Clone(out.Trace.Events)
		for i := range events {
			f(&events[i])
		}
		return trace.New(events)
	}
	wantModel, wantAssign := generate(t, out.Trace)

	cases := []struct {
		name string
		tr   func() *trace.Trace
	}{
		{"one-packet senders", func() *trace.Trace {
			// Senders below MinPackets never reach the corpus or the view.
			first, last := out.Trace.Span()
			events := slices.Clone(out.Trace.Events)
			for i := range 200 {
				events = append(events, trace.Event{
					Ts:    first + (last-first)*int64(i)/199,
					Src:   netutil.MustParseIPv4("100.64.0.0") + netutil.IPv4(i),
					Dst:   netutil.MustParseIPv4("198.18.0.1"),
					Port:  uint16(1024 + i),
					Proto: packet.IPProtocolTCP,
				})
			}
			return trace.New(events)
		}},
		{"shifted a day", func() *trace.Trace { return edit(func(e *trace.Event) { e.Ts += 86400 }) }},
		{"shifted 7s", func() *trace.Trace { return edit(func(e *trace.Event) { e.Ts += 7 }) }},
		{"no destination or vantage", func() *trace.Trace {
			return edit(func(e *trace.Event) { e.Dst, e.Vantage = 0, 0 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, assign := generate(t, tc.tr())
			if !bytes.Equal(model, wantModel) {
				t.Error("model bytes changed")
			}
			if !reflect.DeepEqual(assign, wantAssign) {
				t.Error("cluster assignment changed")
			}
		})
	}
}
