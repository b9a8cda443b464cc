// Package labels builds the ground truth of §3.2: the Mirai-like class is
// derived from the packet fingerprint present in the trace (TCP sequence
// number equal to the destination address), and the scanner-project classes
// come from published IP feeds (Censys, Shodan, Stretchoid, …  — here the
// feeds exported by the generator). Everything else is Unknown.
package labels

import (
	"sort"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// Unknown is the catch-all class for senders with no label.
const Unknown = "unknown"

// MiraiClass is the fingerprint-derived class name (GT1).
const MiraiClass = "mirai-like"

// Set is an immutable sender → class assignment.
type Set struct {
	byIP map[netutil.IPv4]string
}

// DetectMirai returns the senders that emitted at least one fingerprinted
// packet in the trace.
func DetectMirai(tr *trace.Trace) map[netutil.IPv4]bool {
	out := make(map[netutil.IPv4]bool)
	for _, e := range tr.Events {
		if e.Mirai {
			out[e.Src] = true
		}
	}
	return out
}

// Build assembles the ground truth: fingerprint first (like the paper, the
// Mirai fingerprint is authoritative), then the feeds. A fingerprinted
// sender that also appears in a feed stays Mirai-like.
func Build(tr *trace.Trace, feeds map[string][]netutil.IPv4) *Set {
	s := &Set{byIP: make(map[netutil.IPv4]string)}
	classes := make([]string, 0, len(feeds))
	for c := range feeds {
		classes = append(classes, c)
	}
	sort.Strings(classes) // deterministic precedence among (disjoint) feeds
	for _, c := range classes {
		for _, ip := range feeds[c] {
			s.byIP[ip] = c
		}
	}
	for ip := range DetectMirai(tr) {
		s.byIP[ip] = MiraiClass
	}
	return s
}

// Class returns the sender's class, or Unknown.
func (s *Set) Class(ip netutil.IPv4) string {
	if c, ok := s.byIP[ip]; ok {
		return c
	}
	return Unknown
}

// Labeled returns the number of senders with a non-Unknown label.
func (s *Set) Labeled() int { return len(s.byIP) }

// Classes returns the distinct non-Unknown class names, sorted.
func (s *Set) Classes() []string {
	set := map[string]bool{}
	for _, c := range s.byIP {
		set[c] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ClassRow is one row of Table 2: a class's last-day footprint.
type ClassRow struct {
	Label    string
	Senders  int
	Packets  int
	Ports    int
	TopPorts []trace.PortStat // top 5 by packets, shares relative to the class
	TopShare float64          // summed share of the top-5 ports
}

// Table2 summarises each class over the given trace, restricted to senders
// in active (nil means all). Rows are sorted by decreasing sender count with
// Unknown last, like the paper's table.
func Table2(tr *trace.Trace, set *Set, active map[netutil.IPv4]bool) []ClassRow {
	type agg struct {
		senders map[netutil.IPv4]bool
		ports   map[trace.PortKey]int
		packets int
	}
	byClass := map[string]*agg{}
	for _, e := range tr.Events {
		if active != nil && !active[e.Src] {
			continue
		}
		c := set.Class(e.Src)
		a := byClass[c]
		if a == nil {
			a = &agg{senders: map[netutil.IPv4]bool{}, ports: map[trace.PortKey]int{}}
			byClass[c] = a
		}
		a.senders[e.Src] = true
		a.ports[e.Key()]++
		a.packets++
	}
	var rows []ClassRow
	for c, a := range byClass {
		row := ClassRow{Label: c, Senders: len(a.senders), Packets: a.packets, Ports: len(a.ports)}
		type pk struct {
			k trace.PortKey
			n int
		}
		all := make([]pk, 0, len(a.ports))
		for k, n := range a.ports {
			all = append(all, pk{k, n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			return all[i].k.Port < all[j].k.Port
		})
		for i := 0; i < len(all) && i < 5; i++ {
			share := float64(all[i].n) / float64(a.packets)
			row.TopPorts = append(row.TopPorts, trace.PortStat{
				Key: all[i].k, Packets: all[i].n, TrafficShare: share,
			})
			row.TopShare += share
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		ui, uj := rows[i].Label == Unknown, rows[j].Label == Unknown
		if ui != uj {
			return uj // Unknown sinks to the bottom
		}
		if rows[i].Senders != rows[j].Senders {
			return rows[i].Senders > rows[j].Senders
		}
		return rows[i].Label < rows[j].Label
	})
	return rows
}
