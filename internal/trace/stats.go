package trace

import (
	"math"
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

// TopPorts returns the n busiest port keys by packet count, optionally
// restricted to one protocol (proto == 0 means all).
func (t *Trace) TopPorts(n int, proto packet.IPProtocol) []PortStat {
	return t.topPorts(t.PortCounts(), n, proto)
}

// topPorts ranks already-counted port keys, then counts distinct sources
// for the rows it returns only: one more pass over the events and a set
// bounded by senders × rows, where a per-port sender set for every port
// (PortSenders) grows with events × ports to fill in three rows.
func (t *Trace) topPorts(counts map[PortKey]int, n int, proto packet.IPProtocol) []PortStat {
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
	row := make(map[PortKey]int, len(stats))
	for i, st := range stats {
		row[st.Key] = i
	}
	type srcRow struct {
		src netutil.IPv4
		row int
	}
	seen := make(map[srcRow]struct{})
	for _, e := range t.Events {
		i, ok := row[e.Key()]
		if !ok {
			continue
		}
		if _, dup := seen[srcRow{e.Src, i}]; !dup {
			seen[srcRow{e.Src, i}] = struct{}{}
			stats[i].Sources++
		}
	}
	return stats
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
// ports are reported (the paper shows 3).
func (t *Trace) Summary(topN int) Stats {
	first, last := t.Span()
	counts := t.PortCounts()
	s := Stats{
		Packets: len(t.Events),
		Sources: len(t.SenderCounts()),
		Ports:   len(counts),
		TopTCP:  t.topPorts(counts, topN, packet.IPProtocolTCP),
	}
	if len(t.Events) > 0 {
		s.FirstDay = TimeOf(first).Format("2006-01-02")
		s.LastDay = TimeOf(last).Format("2006-01-02")
	}
	return s
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

// SenderFirstSeen returns each sender's first event timestamp.
func (t *Trace) SenderFirstSeen() map[netutil.IPv4]int64 {
	m := make(map[netutil.IPv4]int64)
	for _, e := range t.Events {
		if _, ok := m[e.Src]; !ok {
			m[e.Src] = e.Ts
		}
	}
	return m
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
