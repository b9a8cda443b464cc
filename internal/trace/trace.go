// Package trace holds the logical darknet trace model: one Event per packet
// that reached the darknet, plus the aggregations the DarkVec pipeline and
// the paper's dataset characterisation (Table 1, Figures 1–2) need —
// per-sender and per-port counts, active-sender filtering, ECDFs, cumulative
// sender growth and activity rasters.
package trace

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
)

// Event is one unsolicited packet observed by the darknet, reduced to the
// fields the methodology consumes. Ts is Unix seconds: darknet analysis in
// the paper works at ΔT = 1 hour granularity, so sub-second precision buys
// nothing. The struct is 24 bytes and pointer-free — a window of events is
// one allocation the collector never scans — which is what keeps month-long
// traces in memory: every copy a generation makes of its window (ring,
// snapshot, filter) costs 24 B per packet. TestEventSize pins the size; a
// new field must fit the two spare bytes or justify growing every copy.
type Event struct {
	Ts    int64             // Unix seconds
	Src   netutil.IPv4      // sender (the "word")
	Dst   netutil.IPv4      // darknet address hit
	Port  uint16            // destination port (0 for ICMP)
	Proto packet.IPProtocol // tcp/udp/icmp
	Mirai bool              // packet carries the Mirai fingerprint (TCP seq == dst IP)
	// Vantage names the telescope that observed the packet (0, "", for a
	// single-vantage trace). Multi-vantage deployments tag events at the
	// edge so a merged or flushed trace keeps which darknet saw what.
	Vantage VantageID
}

// PortKey identifies a transport port including its protocol, e.g. 23/tcp.
// ICMP traffic maps to PortKey{0, icmp}.
type PortKey struct {
	Port  uint16
	Proto packet.IPProtocol
}

// String returns e.g. "23/tcp" or "icmp".
func (p PortKey) String() string { return portString(p) }

func portString(p PortKey) string {
	if p.Proto != packet.IPProtocolTCP && p.Proto != packet.IPProtocolUDP {
		return "icmp"
	}
	b := strconv.AppendUint(make([]byte, 0, len("65535/tcp")), uint64(p.Port), 10)
	return string(append(append(b, '/'), p.Proto.String()...))
}

// Key returns the event's PortKey.
func (e Event) Key() PortKey {
	if e.Proto == packet.IPProtocolICMPv4 {
		return PortKey{0, packet.IPProtocolICMPv4}
	}
	return PortKey{e.Port, e.Proto}
}

// Trace is an ordered collection of events. Events must be sorted by Ts;
// Sort establishes the invariant and the constructors maintain it.
type Trace struct {
	Events []Event
}

// New wraps events in a Trace and sorts them by timestamp (stable, so equal
// timestamps preserve generation order).
func New(events []Event) *Trace {
	t := &Trace{Events: events}
	t.Sort()
	return t
}

// Sort re-establishes timestamp order, stably and in place. The usual
// inputs — a snapshot of an in-order ring, a file WriteCSV wrote — are
// already in order, and one linear look says so. The sort allocates no
// scratch: at paper scale an event-sized buffer is one more window copy on
// the peak heap (DESIGN.md "One sort, in place").
func (t *Trace) Sort() {
	for i := 1; i < len(t.Events); i++ {
		if t.Events[i].Ts < t.Events[i-1].Ts {
			slices.SortStableFunc(t.Events, func(a, b Event) int { return cmp.Compare(a.Ts, b.Ts) })
			return
		}
	}
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Span returns the first and last timestamp. Zero trace spans (0,0).
func (t *Trace) Span() (first, last int64) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	return t.Events[0].Ts, t.Events[len(t.Events)-1].Ts
}

// Window returns the sub-trace with Ts in [from, to). The events slice is
// shared with the parent (no copy).
func (t *Trace) Window(from, to int64) *Trace {
	lo := sort.Search(len(t.Events), func(i int) bool { return t.Events[i].Ts >= from })
	hi := sort.Search(len(t.Events), func(i int) bool { return t.Events[i].Ts >= to })
	return &Trace{Events: t.Events[lo:hi]}
}

// LastDays returns the sub-trace covering the final n whole days (aligned to
// the trace's final day boundary in UTC).
func (t *Trace) LastDays(n int) *Trace {
	if len(t.Events) == 0 {
		return &Trace{}
	}
	_, last := t.Span()
	return t.DaysEndingAt(n, last)
}

// DaysEndingAt returns the sub-trace covering the n whole UTC days that end
// with the day of ts: LastDays anchored on a timestamp the trace need not
// hold, such as the newest event of a larger trace this one was cut from.
func (t *Trace) DaysEndingAt(n int, ts int64) *Trace {
	end := dayStart(ts) + 86400
	return t.Window(end-int64(n)*86400, end)
}

// FirstDays returns the sub-trace covering the first n whole days.
func (t *Trace) FirstDays(n int) *Trace {
	if len(t.Events) == 0 {
		return &Trace{}
	}
	first, _ := t.Span()
	start := dayStart(first)
	return t.Window(start, start+int64(n)*86400)
}

func dayStart(ts int64) int64 { return ts - ts%86400 }

// Days returns the number of whole days the trace spans (at least 1 for a
// non-empty trace).
func (t *Trace) Days() int {
	if len(t.Events) == 0 {
		return 0
	}
	first, last := t.Span()
	return DaysSpanned(first, last)
}

// DaysSpanned returns the number of UTC days from the day of first to the
// day of last, both included.
func DaysSpanned(first, last int64) int {
	return int(dayStart(last)-dayStart(first))/86400 + 1
}

// SenderCounts returns packets observed per sender.
func (t *Trace) SenderCounts() map[netutil.IPv4]int {
	m := make(map[netutil.IPv4]int)
	for _, e := range t.Events {
		m[e.Src]++
	}
	return m
}

// ActiveSenders returns the set of senders with at least minPackets events,
// the paper's "active sender" filter (≥ 10 packets, §3.1).
func (t *Trace) ActiveSenders(minPackets int) map[netutil.IPv4]bool {
	active := make(map[netutil.IPv4]bool)
	for src, n := range t.SenderCounts() {
		if n >= minPackets {
			active[src] = true
		}
	}
	return active
}

// FilterSenders returns a new trace containing only events whose sender is
// in keep, in a slice of exactly their number: one pass looks each event's
// sender up and marks the kept events in a bitmap (one bit per event), the
// second copies the marked ones.
func (t *Trace) FilterSenders(keep map[netutil.IPv4]bool) *Trace {
	marks := make([]uint64, (len(t.Events)+63)/64)
	n := 0
	for i, e := range t.Events {
		if keep[e.Src] {
			marks[i/64] |= 1 << (i % 64)
			n++
		}
	}
	out := make([]Event, 0, n)
	for i, e := range t.Events {
		if marks[i/64]&(1<<(i%64)) != 0 {
			out = append(out, e)
		}
	}
	return &Trace{Events: out}
}

// Merge combines traces into one time-ordered trace — e.g. joining the
// views of several darknet blocks before training a shared embedding.
// Events are copied; the inputs are left untouched.
func Merge(traces ...*Trace) *Trace {
	total := 0
	for _, t := range traces {
		if t != nil {
			total += len(t.Events)
		}
	}
	events := make([]Event, 0, total)
	for _, t := range traces {
		if t != nil {
			events = append(events, t.Events...)
		}
	}
	return New(events)
}

// FilterDst returns the sub-trace of packets destined to the given block —
// the view of a smaller darknet carved out of the monitored range (used by
// the cross-darknet transfer experiment).
func (t *Trace) FilterDst(block netutil.Subnet) *Trace {
	out := make([]Event, 0, len(t.Events))
	for _, e := range t.Events {
		if block.Contains(e.Dst) {
			out = append(out, e)
		}
	}
	return &Trace{Events: out}
}

// Senders returns the distinct senders in first-appearance order.
func (t *Trace) Senders() []netutil.IPv4 {
	seen := make(map[netutil.IPv4]bool)
	var out []netutil.IPv4
	for _, e := range t.Events {
		if !seen[e.Src] {
			seen[e.Src] = true
			out = append(out, e.Src)
		}
	}
	return out
}

// PortCounts returns packets observed per destination port key.
func (t *Trace) PortCounts() map[PortKey]int {
	m := make(map[PortKey]int)
	for _, e := range t.Events {
		m[e.Key()]++
	}
	return m
}

// TimeOf converts a Unix-seconds timestamp to time.Time in UTC.
func TimeOf(ts int64) time.Time { return time.Unix(ts, 0).UTC() }
