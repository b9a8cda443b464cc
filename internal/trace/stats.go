package trace

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
)

// PortStat is one row of a per-port ranking.
type PortStat struct {
	Key          PortKey
	Packets      int
	TrafficShare float64 // fraction of all packets
	Sources      int     // distinct senders targeting the port
}

// TopTCPRows is how many top TCP ports a Table 1 summary lists (the paper
// shows 3): the rows of /v1/stats.
const TopTCPRows = 3

// TopPorts returns the n busiest port keys by packet count (all of them
// when n <= 0), optionally restricted to one protocol (proto == 0 means
// all).
func (t *Trace) TopPorts(n int, proto packet.IPProtocol) []PortStat {
	return tallyRuns(n, proto, nil, t.Events).top
}

// Stats summarises a trace the way the paper's Table 1 does.
type Stats struct {
	FirstDay, LastDay string // YYYY-MM-DD, UTC
	Sources           int
	Packets           int
	Ports             int // distinct (port, proto) keys observed
	TopTCP            []PortStat
}

// Summary computes Table 1 style statistics; topN controls how many top TCP
// ports are reported (the paper shows 3, TopTCPRows).
func (t *Trace) Summary(topN int) Stats {
	var senders keySet
	tl := tallyRuns(topN, packet.IPProtocolTCP, func(e *Event) { senders.add(uint64(e.Src)) }, t.Events)
	return tl.stats(senders.n)
}

// Cut is a generation's input, the one home of the paper's active-sender
// rule (≥ 10 packets, §3.1, §5.1) and of the eval anchor: the events of the
// senders with at least MinPackets packets, which the pipeline trains on,
// and the per-sender counts, summary and span of every event they were cut
// from. (*Trace).Cut cuts a trace and the live window cuts its ring; both
// run CutEvents.
type Cut struct {
	// Trainable holds, time-ordered, the events of every sender with at
	// least MinPackets packets, in a slice of exactly their number.
	Trainable  *Trace
	MinPackets int
	// Counts is packets per sender over every event.
	Counts map[netutil.IPv4]int32
	// Stats is the Table 1 summary (TopTCPRows top TCP ports) of every
	// event.
	Stats Stats
	// First and Last are the smallest and largest Ts of every event.
	First, Last int64
}

// Days returns the number of UTC days every event spans.
func (c Cut) Days() int {
	if c.Stats.Packets == 0 {
		return 0
	}
	return DaysSpanned(c.First, c.Last)
}

// LastDays returns the trainable events of the final n UTC days of every
// event: the day boundary is the newest event's, which a sender below
// MinPackets may hold, not the newest trainable one's.
func (c Cut) LastDays(n int) *Trace {
	if c.Stats.Packets == 0 {
		return &Trace{}
	}
	return c.Trainable.DaysEndingAt(n, c.Last)
}

// Active returns the set of Trainable's senders, read off Counts.
func (c Cut) Active() map[netutil.IPv4]bool {
	active := make(map[netutil.IPv4]bool)
	for src, n := range c.Counts {
		if int(n) >= c.MinPackets {
			active[src] = true
		}
	}
	return active
}

// Cut cuts the trace at minPackets.
func (t *Trace) Cut(minPackets int) Cut {
	counts := make(map[netutil.IPv4]int32)
	for i := range t.Events {
		counts[t.Events[i].Src]++
	}
	return CutEvents(counts, minPackets, t.Events)
}

// CutEvents cuts the events of runs, whose senders' packet counts are
// counts (the Cut keeps the map), at minPackets: the summary's first pass
// copies the trainable events, in the order offered, into one exact-size
// slice. A caller that offers events out of Ts order sorts Trainable itself
// (Trace.Sort), outside whatever lock it cut them under — the live window
// cuts its ring's two runs where they lie.
func CutEvents(counts map[netutil.IPv4]int32, minPackets int, runs ...[]Event) Cut {
	kept := 0
	for _, n := range counts {
		if int(n) >= minPackets {
			kept += int(n)
		}
	}
	events := make([]Event, 0, kept)
	tl := tallyRuns(TopTCPRows, packet.IPProtocolTCP, func(e *Event) {
		if int(counts[e.Src]) >= minPackets {
			events = append(events, *e)
		}
	}, runs...)
	return Cut{
		Trainable:  &Trace{Events: events},
		MinPackets: minPackets,
		Counts:     counts,
		Stats:      tl.stats(len(counts)),
		First:      tl.first,
		Last:       tl.last,
	}
}

// tallyRuns runs the tally sequence over the events of runs, offering each
// event to each, when it is non-nil, on the first pass: add every event;
// rank; offer every event again to rowOf, and countSource the ones on a
// ranked row.
func tallyRuns(n int, proto packet.IPProtocol, each func(*Event), runs ...[]Event) *tally {
	tl := new(tally)
	for _, run := range runs {
		for i := range run {
			tl.add(&run[i])
			if each != nil {
				each(&run[i])
			}
		}
	}
	tl.rank(n, proto)
	for _, run := range runs {
		for i := range run {
			if row := tl.rowOf(&run[i]); row >= 0 {
				tl.countSource(row, run[i].Src)
			}
		}
	}
	return tl
}

// tally accumulates a Table 1 summary of events offered one at a time.
// Packets per port key live in dense per-protocol tables, an array index per
// event where a map would hash, and the ranking keeps its top rows instead
// of sorting every key.
type tally struct {
	packets     int
	first, last int64
	// ports holds, per protocol, packets per port; rank overwrites each
	// ranked key's count with −(row + 1). A port's count fits an int32:
	// 2^31 events to one port is 48 GiB of window.
	ports [256][]int32
	keys  int // distinct port keys, counted by rank
	top   []PortStat
	pairs keySet // (sender, row) pairs already counted into top[row].Sources
}

// add counts one event.
func (t *tally) add(e *Event) {
	if t.packets == 0 || e.Ts < t.first {
		t.first = e.Ts
	}
	if t.packets == 0 || e.Ts > t.last {
		t.last = e.Ts
	}
	t.packets++
	k := e.Key()
	tab := t.ports[k.Proto]
	if tab == nil {
		// ICMP has one key (Key maps its port to 0).
		size := 1 << 16
		if k.Proto == packet.IPProtocolICMPv4 {
			size = 1
		}
		tab = make([]int32, size)
		t.ports[k.Proto] = tab
	}
	tab[k.Port]++
}

// rank selects the n busiest port keys (all of them when n <= 0) of proto
// (0 means all) by packet count, ties broken by port then protocol, and
// marks the ranked keys in the tables for rowOf.
func (t *tally) rank(n int, proto packet.IPProtocol) {
	t.top = make([]PortStat, 0, max(n, 0))
	for p, tab := range t.ports {
		for port, c := range tab {
			if c == 0 {
				continue
			}
			t.keys++
			if proto != 0 && packet.IPProtocol(p) != proto {
				continue
			}
			st := PortStat{
				Key:          PortKey{uint16(port), packet.IPProtocol(p)},
				Packets:      int(c),
				TrafficShare: float64(c) / float64(t.packets),
			}
			if n <= 0 {
				t.top = append(t.top, st)
				continue
			}
			i := len(t.top)
			for i > 0 && comparePorts(st, t.top[i-1]) < 0 {
				i--
			}
			if i == n {
				continue
			}
			if len(t.top) < n {
				t.top = append(t.top, PortStat{})
			}
			copy(t.top[i+1:], t.top[i:])
			t.top[i] = st
		}
	}
	if n <= 0 {
		slices.SortFunc(t.top, comparePorts)
	}
	for i, st := range t.top {
		t.ports[st.Key.Proto][st.Key.Port] = -int32(i + 1)
	}
}

// comparePorts orders a ranking: more packets first, then lower port, then
// lower protocol number.
func comparePorts(a, b PortStat) int {
	if a.Packets != b.Packets {
		return cmp.Compare(b.Packets, a.Packets)
	}
	if a.Key.Port != b.Key.Port {
		return cmp.Compare(a.Key.Port, b.Key.Port)
	}
	return cmp.Compare(a.Key.Proto, b.Key.Proto)
}

// rowOf returns the ranked row e's port key holds, -1 when it holds none.
// Only meaningful after rank.
func (t *tally) rowOf(e *Event) int {
	k := e.Key()
	tab := t.ports[k.Proto]
	if tab == nil || tab[k.Port] >= 0 {
		return -1
	}
	return int(-tab[k.Port]) - 1
}

// countSource counts src as a source of the ranked row, once however many
// of its events are offered.
func (t *tally) countSource(row int, src netutil.IPv4) {
	if t.pairs.add(uint64(src)<<32 | uint64(row)) {
		t.top[row].Sources++
	}
}

// stats returns the summary: sources is the distinct senders among the
// events added, which the caller counts; TopTCP is the ranking, so a
// Table 1 summary ranks packet.IPProtocolTCP.
func (t *tally) stats(sources int) Stats {
	s := Stats{Packets: t.packets, Sources: sources, Ports: t.keys, TopTCP: t.top}
	if t.packets > 0 {
		s.FirstDay = TimeOf(t.first).Format("2006-01-02")
		s.LastDay = TimeOf(t.last).Format("2006-01-02")
	}
	return s
}

// keySet is an open-addressing set of uint64 keys (linear probing,
// Fibonacci hashing). Its allocation follows the distinct keys it holds,
// doubling at half load, never the number of offers — and, unlike a map's,
// it is the same on every run.
type keySet struct {
	slots []uint64 // key + 1; 0 marks an empty slot
	shift uint     // 64 − log2(len(slots))
	n     int
}

// add inserts k (which must not be the maximum uint64) and reports whether
// it was new.
func (s *keySet) add(k uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	k++
	mask := len(s.slots) - 1
	for i := int((k * 0x9e3779b97f4a7c15) >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			s.n++
			return true
		}
	}
}

func (s *keySet) grow() {
	old := s.slots
	size := max(2*len(old), 64)
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n = 0
	for _, k := range old {
		if k != 0 {
			s.add(k - 1)
		}
	}
}

// CumulativeSenders returns, for each day d (0-based), the number of
// distinct senders observed in days [0, d]. When minPackets > 1 the count is
// restricted to senders that reach minPackets over the whole trace first
// (the paper's Figure 2b "filtered" curve).
func (t *Trace) CumulativeSenders(minPackets int) []int {
	days := t.Days()
	if days == 0 {
		return nil
	}
	var keep map[netutil.IPv4]bool
	if minPackets > 1 {
		keep = t.ActiveSenders(minPackets)
	}
	seen := make(map[netutil.IPv4]bool)
	out := make([]int, days)
	first, _ := t.Span()
	start := dayStart(first)
	i := 0
	for d := 0; d < days; d++ {
		end := start + int64(d+1)*86400
		for i < len(t.Events) && t.Events[i].Ts < end {
			e := t.Events[i]
			if keep == nil || keep[e.Src] {
				seen[e.Src] = true
			}
			i++
		}
		out[d] = len(seen)
	}
	return out
}

// ActivityRaster describes when each of a set of senders was active, at a
// fixed bin width. It is the data behind the paper's activity-pattern
// figures (1b, 9, 12–15): rows are senders in a caller-chosen order, columns
// are time bins, and Cells[r] lists the active bin indices of row r.
type ActivityRaster struct {
	Senders []netutil.IPv4
	BinSecs int64
	Bins    int
	Cells   [][]int32
}

// Raster builds an activity raster for the given senders (row order
// preserved) with the given bin width in seconds.
func (t *Trace) Raster(senders []netutil.IPv4, binSecs int64) ActivityRaster {
	first, last := t.Span()
	if len(t.Events) == 0 || binSecs <= 0 {
		return ActivityRaster{Senders: senders, BinSecs: binSecs}
	}
	bins := int((last-first)/binSecs) + 1
	row := make(map[netutil.IPv4]int, len(senders))
	for i, s := range senders {
		row[s] = i
	}
	active := make([]map[int32]bool, len(senders))
	for _, e := range t.Events {
		r, ok := row[e.Src]
		if !ok {
			continue
		}
		if active[r] == nil {
			active[r] = make(map[int32]bool)
		}
		active[r][int32((e.Ts-first)/binSecs)] = true
	}
	cells := make([][]int32, len(senders))
	for r := range active {
		for b := range active[r] {
			cells[r] = append(cells[r], b)
		}
		sort.Slice(cells[r], func(i, j int) bool { return cells[r][i] < cells[r][j] })
	}
	return ActivityRaster{Senders: senders, BinSecs: binSecs, Bins: bins, Cells: cells}
}

// Occupancy returns the fraction of time bins in which each row was active.
func (r ActivityRaster) Occupancy() []float64 {
	out := make([]float64, len(r.Cells))
	if r.Bins == 0 {
		return out
	}
	for i, c := range r.Cells {
		out[i] = float64(len(c)) / float64(r.Bins)
	}
	return out
}

// Burstiness returns, per row, the coefficient of variation of gaps between
// consecutive active bins. Regular patterns (Fig 14) score near 0; impulsive
// ones (Fig 9b) score high. Rows with fewer than 3 active bins return 0.
func (r ActivityRaster) Burstiness() []float64 {
	out := make([]float64, len(r.Cells))
	for i, c := range r.Cells {
		if len(c) < 3 {
			continue
		}
		var mean float64
		gaps := make([]float64, len(c)-1)
		for j := 1; j < len(c); j++ {
			gaps[j-1] = float64(c[j] - c[j-1])
			mean += gaps[j-1]
		}
		mean /= float64(len(gaps))
		var varsum float64
		for _, g := range gaps {
			d := g - mean
			varsum += d * d
		}
		if mean > 0 {
			out[i] = math.Sqrt(varsum/float64(len(gaps))) / mean
		}
	}
	return out
}
