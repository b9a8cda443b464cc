package trace

import (
	"reflect"
	"testing"
)

// TestTraceCutIsTheFilter: a trace's cut holds what the active filter
// keeps — FilterSenders(ActiveSenders(P)), event for event, in a slice of
// exactly their number — and those senders; it summarises and spans every
// event, anchors its last days on the trace's; and cutting its trainable
// trace again at P, an all-active trace, keeps it whole.
func TestTraceCutIsTheFilter(t *testing.T) {
	tr := scanTrace(4000, 400, 50, 3)
	first, last := tr.Span()
	for _, p := range []int{0, 1, 2, 10, 15} {
		c := tr.Cut(p)
		active := tr.ActiveSenders(p)
		want := tr.FilterSenders(active)
		if want.Len() == 0 {
			t.Fatalf("P=%d: nobody trainable; the trace does not exercise the cut", p)
		}
		if !reflect.DeepEqual(c.Trainable.Events, want.Events) || cap(c.Trainable.Events) != want.Len() {
			t.Errorf("P=%d: cut holds %d events in a slice of cap %d, FilterSenders(ActiveSenders(P)) %d, or their order differs",
				p, c.Trainable.Len(), cap(c.Trainable.Events), want.Len())
		}
		if !reflect.DeepEqual(c.Active(), active) {
			t.Errorf("P=%d: cut's active senders differ from ActiveSenders(P)", p)
		}
		if !reflect.DeepEqual(c.Stats, tr.Summary(TopTCPRows)) || c.First != first || c.Last != last || c.Days() != tr.Days() {
			t.Errorf("P=%d: cut summary %+v over [%d, %d], the trace's %+v over [%d, %d]",
				p, c.Stats, c.First, c.Last, tr.Summary(TopTCPRows), first, last)
		}
		if got, want := c.LastDays(1), tr.LastDays(1).FilterSenders(active); !reflect.DeepEqual(got.Events, want.Events) {
			t.Errorf("P=%d: cut's last day holds %d events, the trace's last day %d of the active senders", p, got.Len(), want.Len())
		}
		again := c.Trainable.Cut(p)
		if !reflect.DeepEqual(again.Trainable.Events, c.Trainable.Events) || !reflect.DeepEqual(again.Active(), active) {
			t.Errorf("P=%d: cutting the trainable trace again changed it", p)
		}
	}
}
