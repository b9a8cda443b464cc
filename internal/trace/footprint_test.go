package trace

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
)

// TestEventSize pins the 24-byte, pointer-free event: every copy of a
// window a generation makes is priced in it.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 24 {
		t.Fatalf("unsafe.Sizeof(trace.Event{}) = %d, want 24", size)
	}
}

// TestEventHasNoPointers: a window's ring lies outside the Go heap, where
// the collector never scans, so an event must hold nothing that points.
func TestEventHasNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.String, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	check("Event", reflect.TypeOf(Event{}))
}

// allocated returns the bytes fn allocates, garbage included.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// scanTrace builds a time-ordered trace of n events in which every one of
// `senders` senders sweeps `ports` TCP ports round-robin and a tenth of the
// traffic is UDP/ICMP — the shape that makes a per-port sender set grow
// with senders × ports.
func scanTrace(n, senders, ports int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	for i := range events {
		e := Event{
			Ts:    day0 + int64(i),
			Src:   netutil.IPv4(0x0a000000 + uint32(rng.Intn(senders))),
			Dst:   netutil.IPv4(0xc6120000 + uint32(rng.Intn(256))),
			Port:  uint16(1 + rng.Intn(ports)),
			Proto: packet.IPProtocolTCP,
		}
		switch rng.Intn(20) {
		case 0:
			e.Proto = packet.IPProtocolUDP
		case 1:
			e.Proto, e.Port = packet.IPProtocolICMPv4, 0
		}
		events[i] = e
	}
	return New(events)
}

// topPortsReference is TopPorts as it was before the ranking counted
// sources for its own rows only: PortCounts plus PortSenders' sender set
// for every port, kept as the oracle.
func (t *Trace) topPortsReference(n int, proto packet.IPProtocol) []PortStat {
	counts := t.PortCounts()
	senders := t.PortSenders()
	total := len(t.Events)
	stats := make([]PortStat, 0, len(counts))
	for k, c := range counts {
		if proto != 0 && k.Proto != proto {
			continue
		}
		stats = append(stats, PortStat{
			Key:          k,
			Packets:      c,
			TrafficShare: float64(c) / float64(total),
			Sources:      senders[k],
		})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Packets != stats[j].Packets {
			return stats[i].Packets > stats[j].Packets
		}
		if stats[i].Key.Port != stats[j].Key.Port {
			return stats[i].Key.Port < stats[j].Key.Port
		}
		return stats[i].Key.Proto < stats[j].Key.Proto
	})
	if n > 0 && len(stats) > n {
		stats = stats[:n]
	}
	return stats
}

func (t *Trace) summaryReference(topN int) Stats {
	first, last := t.Span()
	s := Stats{
		Packets: len(t.Events),
		Sources: len(t.SenderCounts()),
		Ports:   len(t.PortCounts()),
		TopTCP:  t.topPortsReference(topN, packet.IPProtocolTCP),
	}
	if len(t.Events) > 0 {
		s.FirstDay = TimeOf(first).Format("2006-01-02")
		s.LastDay = TimeOf(last).Format("2006-01-02")
	}
	return s
}

func TestSummaryMatchesReference(t *testing.T) {
	for _, tr := range []*Trace{
		{},
		sampleTrace(),
		scanTrace(20000, 300, 40, 1),
		scanTrace(20000, 50, 2000, 2),
	} {
		for _, topN := range []int{0, 1, 3, 14} {
			if got, want := tr.Summary(topN), tr.summaryReference(topN); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d events, Summary(%d) = %+v, reference %+v", tr.Len(), topN, got, want)
			}
			for _, proto := range []packet.IPProtocol{0, packet.IPProtocolTCP, packet.IPProtocolUDP, packet.IPProtocolICMPv4} {
				got, want := tr.TopPorts(topN, proto), tr.topPortsReference(topN, proto)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d events, TopPorts(%d, %v) = %+v, reference %+v", tr.Len(), topN, proto, got, want)
				}
			}
		}
	}
}

// TestSummaryAllocsIndependentOfSenderPortPairs: with senders, ports and
// the three reported rows fixed, Summary's allocation must not follow the
// number of distinct (sender, port) pairs the way the per-port sender sets
// did. Ten times the events — and so roughly ten times the pairs seen —
// may cost the reference several times more; Summary stays flat.
func TestSummaryAllocsIndependentOfSenderPortPairs(t *testing.T) {
	small, large := scanTrace(20000, 2000, 500, 3), scanTrace(200000, 2000, 500, 3)
	a, b := allocated(func() { small.Summary(3) }), allocated(func() { large.Summary(3) })
	refA, refB := allocated(func() { small.summaryReference(3) }), allocated(func() { large.summaryReference(3) })
	t.Logf("Summary: %d -> %d bytes; reference: %d -> %d bytes", a, b, refA, refB)
	if float64(b) > 1.5*float64(a) {
		t.Errorf("Summary allocated %d bytes on 20k events and %d on 200k: it grows with the events", a, b)
	}
	if refB < 3*b {
		t.Errorf("reference allocates %d bytes, Summary %d: the fixture no longer exercises the per-port sender sets", refB, b)
	}
}

// TestSortLeavesOrderedTraceAlone: the common input is already in order
// (a ring snapshot, a file WriteCSV wrote) and costs one linear look, not a
// stable sort; an out-of-order one is still sorted stably.
func TestSortLeavesOrderedTraceAlone(t *testing.T) {
	tr := scanTrace(50000, 100, 10, 4)
	if n := testing.AllocsPerRun(5, tr.Sort); n != 0 {
		t.Errorf("Sort of an ordered trace allocates %v times, want 0", n)
	}
	events := []Event{
		ev(5, "10.0.0.1", 1, packet.IPProtocolTCP),
		ev(9, "10.0.0.2", 2, packet.IPProtocolTCP),
		ev(5, "10.0.0.3", 3, packet.IPProtocolTCP),
		ev(1, "10.0.0.4", 4, packet.IPProtocolTCP),
		ev(5, "10.0.0.5", 5, packet.IPProtocolTCP),
	}
	got := New(events)
	var ports []uint16
	for _, e := range got.Events {
		ports = append(ports, e.Port)
	}
	if want := []uint16{4, 1, 3, 5, 2}; !reflect.DeepEqual(ports, want) {
		t.Errorf("stable order by ts = %v, want %v", ports, want)
	}
}

// sortShapes returns the event orders Sort must handle, each event made
// distinguishable by its sender (its index), so the reference comparison
// sees how ties were broken.
func sortShapes() map[string][]Event {
	const n = 5000
	rng := rand.New(rand.NewSource(6))
	shape := func(ts func(i int) int64) []Event {
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{Ts: day0 + ts(i), Src: netutil.IPv4(i), Proto: packet.IPProtocolTCP}
		}
		return events
	}
	late := shape(func(i int) int64 { return int64(i / 2) })
	for i := range late {
		if rng.Intn(100) == 0 {
			late[i].Ts -= 1 + rng.Int63n(300)
		}
	}
	outlier := shape(func(i int) int64 { return int64(i / 2) })
	outlier[0].Ts = day0 + 1e9
	return map[string][]Event{
		"empty":            nil,
		"one":              shape(func(int) int64 { return 0 })[:1],
		"reversed":         shape(func(i int) int64 { return int64((n - i) / 4) }),
		"all-equal":        shape(func(int) int64 { return 0 }),
		"shuffled-ties":    shape(func(int) int64 { return rng.Int63n(n / 10) }),
		"late-1pct":        late,
		"far-future-first": outlier,
	}
}

// TestSortMatchesStableReference: Sort orders every shape exactly as the
// reflective sort.SliceStable does, ties in input order.
func TestSortMatchesStableReference(t *testing.T) {
	for name, events := range sortShapes() {
		want := slices.Clone(events)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Ts < want[j].Ts })
		tr := &Trace{Events: events}
		tr.Sort()
		if !slices.Equal(tr.Events, want) {
			t.Errorf("%s: Sort differs from the stable reference", name)
		}
	}
}

// TestSortAllocatesNothing: an out-of-order trace is sorted in place, with
// no scratch buffer — at paper scale an event-sized buffer is another
// window copy on the peak heap.
func TestSortAllocatesNothing(t *testing.T) {
	reversed := scanTrace(50000, 100, 10, 4).Events
	slices.Reverse(reversed)
	tr := &Trace{Events: make([]Event, len(reversed))}
	if n := testing.AllocsPerRun(5, func() {
		copy(tr.Events, reversed)
		tr.Sort()
	}); n != 0 {
		t.Errorf("Sort of a reversed trace allocates %v times, want 0", n)
	}
}

// TestReadFileAllocatesEventsOnce: reading a file sizes the event slice
// from the file's length, so the read allocates the slice it returns plus
// one string per line — and none of the discarded backing
// arrays append growth leaves behind, which the same bytes read through a
// plain io.Reader (no length to size from) still pay.
func TestReadFileAllocatesEventsOnce(t *testing.T) {
	tr := scanTrace(100000, 500, 50, 5)
	var file bytes.Buffer
	if err := tr.WriteCSV(&file); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	slice := uint64(tr.Len()) * uint64(unsafe.Sizeof(Event{}))
	grown := allocated(func() {
		if _, _, err := ReadCSV(struct{ io.Reader }{bytes.NewReader(file.Bytes())}, robust.Budget{}); err != nil {
			t.Fatal(err)
		}
	})
	for _, maxErr := range []int64{0, 10} {
		var got *Trace
		var err error
		sized := allocated(func() {
			if got, _, err = ReadFile(path, maxErr); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("maxErr %d: %d bytes allocated from the file, %d from a reader, event slice %d", maxErr, sized, grown, slice)
		if !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("maxErr %d: read back a different trace", maxErr)
		}
		if sized+2*slice > grown {
			t.Errorf("maxErr %d: sizing from the file saved %d bytes, want at least two event slices (%d)", maxErr, int64(grown)-int64(sized), 2*slice)
		}
		if c := cap(got.Events); c > tr.Len()+tr.Len()/16 {
			t.Errorf("maxErr %d: event slice capacity %d for %d events", maxErr, c, tr.Len())
		}
	}
}
