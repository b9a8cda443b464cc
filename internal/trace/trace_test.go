package trace

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
)

var day0 = time.Date(2021, 3, 2, 0, 0, 0, 0, time.UTC).Unix()

func ip(s string) netutil.IPv4 { return netutil.MustParseIPv4(s) }

func ev(tsOffset int64, src string, port uint16, proto packet.IPProtocol) Event {
	return Event{Ts: day0 + tsOffset, Src: ip(src), Dst: ip("198.18.0.1"), Port: port, Proto: proto}
}

func sampleTrace() *Trace {
	return New([]Event{
		ev(3600, "10.0.0.2", 445, packet.IPProtocolTCP),
		ev(0, "10.0.0.1", 23, packet.IPProtocolTCP),
		ev(7200, "10.0.0.1", 23, packet.IPProtocolTCP),
		ev(86400, "10.0.0.3", 53, packet.IPProtocolUDP),
		ev(90000, "10.0.0.1", 23, packet.IPProtocolTCP),
		ev(2*86400, "10.0.0.4", 0, packet.IPProtocolICMPv4),
	})
}

func TestNewSortsByTime(t *testing.T) {
	tr := sampleTrace()
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i-1].Ts > tr.Events[i].Ts {
			t.Fatalf("events out of order at %d", i)
		}
	}
	if tr.Events[0].Src != ip("10.0.0.1") {
		t.Fatal("first event must be the earliest")
	}
}

func TestSpanAndDays(t *testing.T) {
	tr := sampleTrace()
	first, last := tr.Span()
	if first != day0 || last != day0+2*86400 {
		t.Fatalf("span = %d..%d", first, last)
	}
	if tr.Days() != 3 {
		t.Fatalf("Days = %d", tr.Days())
	}
	if (&Trace{}).Days() != 0 {
		t.Fatal("empty trace must span 0 days")
	}
}

func TestWindow(t *testing.T) {
	tr := sampleTrace()
	w := tr.Window(day0+3600, day0+86400)
	if w.Len() != 2 {
		t.Fatalf("window len = %d", w.Len())
	}
	for _, e := range w.Events {
		if e.Ts < day0+3600 || e.Ts >= day0+86400 {
			t.Fatalf("event %v outside window", e.Ts)
		}
	}
}

func TestFirstLastDays(t *testing.T) {
	tr := sampleTrace()
	if got := tr.FirstDays(1).Len(); got != 3 {
		t.Fatalf("FirstDays(1) = %d events", got)
	}
	if got := tr.LastDays(1).Len(); got != 1 {
		t.Fatalf("LastDays(1) = %d events", got)
	}
	if got := tr.LastDays(2).Len(); got != 3 {
		t.Fatalf("LastDays(2) = %d events", got)
	}
	if got := tr.FirstDays(100).Len(); got != tr.Len() {
		t.Fatal("FirstDays beyond span must include everything")
	}
}

func TestSenderCountsAndActive(t *testing.T) {
	tr := sampleTrace()
	counts := tr.SenderCounts()
	if counts[ip("10.0.0.1")] != 3 || counts[ip("10.0.0.2")] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	active := tr.ActiveSenders(2)
	if len(active) != 1 || !active[ip("10.0.0.1")] {
		t.Fatalf("active = %v", active)
	}
	filtered := tr.FilterSenders(active)
	if filtered.Len() != 3 || cap(filtered.Events) != 3 {
		t.Fatalf("filtered = %d events in a slice of cap %d, want 3 in 3", filtered.Len(), cap(filtered.Events))
	}
}

func TestSendersFirstAppearanceOrder(t *testing.T) {
	tr := sampleTrace()
	got := tr.Senders()
	want := []netutil.IPv4{ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3"), ip("10.0.0.4")}
	if len(got) != len(want) {
		t.Fatalf("senders = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("senders[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPortKeyString(t *testing.T) {
	cases := map[PortKey]string{
		{23, packet.IPProtocolTCP}:   "23/tcp",
		{53, packet.IPProtocolUDP}:   "53/udp",
		{0, packet.IPProtocolICMPv4}: "icmp",
		{80, packet.IPProtocolTCP}:   "80/tcp",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", k, got, want)
		}
	}
}

func TestEventKeyICMPNormalised(t *testing.T) {
	e := ev(0, "1.1.1.1", 1234, packet.IPProtocolICMPv4)
	if e.Key() != (PortKey{0, packet.IPProtocolICMPv4}) {
		t.Fatal("icmp events must map to port 0")
	}
}

func TestPortCountsAndSenders(t *testing.T) {
	tr := sampleTrace()
	pc := tr.PortCounts()
	if pc[PortKey{23, packet.IPProtocolTCP}] != 3 {
		t.Fatalf("port counts = %v", pc)
	}
	ps := tr.PortSenders()
	if ps[PortKey{23, packet.IPProtocolTCP}] != 1 {
		t.Fatalf("port senders = %v", ps)
	}
}

func TestTopPorts(t *testing.T) {
	tr := sampleTrace()
	top := tr.TopPorts(2, 0)
	if len(top) != 2 || top[0].Key != (PortKey{23, packet.IPProtocolTCP}) {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Packets != 3 || top[0].Sources != 1 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	tcpOnly := tr.TopPorts(10, packet.IPProtocolTCP)
	for _, p := range tcpOnly {
		if p.Key.Proto != packet.IPProtocolTCP {
			t.Fatalf("non-tcp port in tcp ranking: %v", p.Key)
		}
	}
}

func TestSummary(t *testing.T) {
	tr := sampleTrace()
	s := tr.Summary(3)
	if s.Sources != 4 || s.Packets != 6 || s.Ports != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.FirstDay != "2021-03-02" || s.LastDay != "2021-03-04" {
		t.Fatalf("dates = %s..%s", s.FirstDay, s.LastDay)
	}
}

func TestCumulativeSenders(t *testing.T) {
	tr := sampleTrace()
	cum := tr.CumulativeSenders(1)
	want := []int{2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum = %v, want %v", cum, want)
		}
	}
	filtered := tr.CumulativeSenders(2)
	if filtered[2] != 1 {
		t.Fatalf("filtered cum = %v", filtered)
	}
}

func TestCumulativeSendersMonotonicProperty(t *testing.T) {
	f := func(offsets []uint32, srcs []uint8) bool {
		n := len(offsets)
		if len(srcs) < n {
			n = len(srcs)
		}
		if n == 0 {
			return true
		}
		events := make([]Event, n)
		for i := 0; i < n; i++ {
			events[i] = Event{
				Ts:    day0 + int64(offsets[i]%(10*86400)),
				Src:   netutil.IPv4(srcs[i]),
				Proto: packet.IPProtocolTCP,
			}
		}
		tr := New(events)
		cum := tr.CumulativeSenders(1)
		for i := 1; i < len(cum); i++ {
			if cum[i] < cum[i-1] {
				return false
			}
		}
		return len(cum) == tr.Days() && cum[len(cum)-1] == len(tr.SenderCounts())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSenderFirstSeen(t *testing.T) {
	tr := sampleTrace()
	fs := tr.SenderFirstSeen()
	if fs[ip("10.0.0.1")] != day0 || fs[ip("10.0.0.3")] != day0+86400 {
		t.Fatalf("first seen = %v", fs)
	}
}

func TestRaster(t *testing.T) {
	tr := sampleTrace()
	r := tr.Raster([]netutil.IPv4{ip("10.0.0.1"), ip("10.0.0.9")}, 3600)
	if len(r.Cells) != 2 {
		t.Fatalf("rows = %d", len(r.Cells))
	}
	// 10.0.0.1 active in hours 0, 2, 25.
	want := []int32{0, 2, 25}
	if len(r.Cells[0]) != 3 {
		t.Fatalf("cells[0] = %v", r.Cells[0])
	}
	for i := range want {
		if r.Cells[0][i] != want[i] {
			t.Fatalf("cells[0] = %v, want %v", r.Cells[0], want)
		}
	}
	if len(r.Cells[1]) != 0 {
		t.Fatal("absent sender must have no cells")
	}
	occ := r.Occupancy()
	if occ[0] <= 0 || occ[1] != 0 {
		t.Fatalf("occupancy = %v", occ)
	}
}

func TestBurstiness(t *testing.T) {
	r := ActivityRaster{
		Bins:  100,
		Cells: [][]int32{{0, 10, 20, 30, 40}, {0, 1, 50, 51, 99}, {3}},
	}
	b := r.Burstiness()
	if b[0] != 0 {
		t.Errorf("perfectly regular pattern should have burstiness 0, got %v", b[0])
	}
	if b[1] <= b[0] {
		t.Errorf("irregular pattern must be burstier: %v", b)
	}
	if b[2] != 0 {
		t.Errorf("too few bins must yield 0, got %v", b[2])
	}
}

func TestRasterOrderPreserved(t *testing.T) {
	tr := sampleTrace()
	senders := tr.Senders()
	r := tr.Raster(senders, 86400)
	if len(r.Senders) != len(senders) {
		t.Fatal("raster must keep row order")
	}
	// All senders appear somewhere.
	rows := 0
	for _, c := range r.Cells {
		if len(c) > 0 {
			rows++
		}
	}
	if rows != len(senders) {
		t.Fatalf("active rows = %d, want %d", rows, len(senders))
	}
}

func TestFilterDst(t *testing.T) {
	events := []Event{
		{Ts: day0, Src: ip("1.1.1.1"), Dst: ip("198.18.0.5")},
		{Ts: day0 + 1, Src: ip("1.1.1.2"), Dst: ip("198.18.0.200")},
		{Ts: day0 + 2, Src: ip("1.1.1.3"), Dst: ip("198.18.0.10")},
	}
	tr := New(events)
	lower := tr.FilterDst(netutil.MustParseSubnet("198.18.0.0/25"))
	if lower.Len() != 2 {
		t.Fatalf("lower view = %d events", lower.Len())
	}
	upper := tr.FilterDst(netutil.MustParseSubnet("198.18.0.128/25"))
	if upper.Len() != 1 || upper.Events[0].Src != ip("1.1.1.2") {
		t.Fatalf("upper view = %+v", upper.Events)
	}
	if lower.Len()+upper.Len() != tr.Len() {
		t.Fatal("views must partition the trace")
	}
}

func TestMerge(t *testing.T) {
	a := New([]Event{ev(100, "1.1.1.1", 23, packet.IPProtocolTCP)})
	b := New([]Event{
		ev(50, "2.2.2.2", 80, packet.IPProtocolTCP),
		ev(150, "3.3.3.3", 53, packet.IPProtocolUDP),
	})
	m := Merge(a, b, nil, &Trace{})
	if m.Len() != 3 {
		t.Fatalf("merged len = %d", m.Len())
	}
	for i := 1; i < m.Len(); i++ {
		if m.Events[i-1].Ts > m.Events[i].Ts {
			t.Fatal("merged trace must be time ordered")
		}
	}
	// Inputs untouched.
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatal("inputs mutated")
	}
	if Merge().Len() != 0 {
		t.Fatal("empty merge")
	}
}
