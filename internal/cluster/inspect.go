package cluster

import (
	"fmt"
	"slices"
	"sort"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// Profile characterises one detected cluster the way the paper's manual
// inspection does (§7.3, Table 5): who is in it, what it targets, how
// concentrated it is in address space, and its dominant ground-truth label.
type Profile struct {
	Cluster   int
	Senders   []netutil.IPv4
	Packets   int
	Ports     int              // distinct port keys targeted
	TopPorts  []trace.PortStat // by packets, top 5
	Subnets24 int              // distinct /24s the senders occupy
	Subnets16 int              // distinct /16s
	MiraiFrac float64          // share of senders emitting the Mirai fingerprint
	GTCounts  map[string]int   // ground-truth label histogram of members
	Dominant  string           // most common GT label
	DomFrac   float64          // its share of the cluster
	AvgSil    float64          // mean member silhouette
	PortShare map[trace.PortKey]float64
}

// PortTally is what the §7.3 inspection reads of a trace: for each listed
// sender, its packets per port key and whether any of them carried the
// Mirai fingerprint. Dense slices, one (key, packets) pair per distinct
// port a sender hit — 8 B a pair plus 9 B a sender — so a generation keeps
// the tally of its served senders, not their events.
type PortTally struct {
	senders []netutil.IPv4  // ascending
	mirai   []bool          // per sender
	start   []int32         // sender → offset into keys and pkts; len = senders+1
	keys    []trace.PortKey // per sender, ascending
	pkts    []int32
}

// NewPortTally tallies tr's events of the listed senders (any order,
// duplicates allowed); a listed sender with no events holds no ports. One
// counting pass sizes each sender's run, a second scatters the events' port
// keys into it (four bytes an event, dropped on return; int32 offsets: a
// trace of 2^31 events is 48 GiB), and each run is sorted and
// run-length encoded into exact-size pairs.
func NewPortTally(tr *trace.Trace, senders []netutil.IPv4) *PortTally {
	ips := slices.Clone(senders)
	slices.Sort(ips)
	ips = slices.Clip(slices.Compact(ips))
	slotOf := make(map[netutil.IPv4]int32, len(ips))
	for s, ip := range ips {
		slotOf[ip] = int32(s)
	}
	t := &PortTally{senders: ips, mirai: make([]bool, len(ips)), start: make([]int32, len(ips)+1)}
	for i := range tr.Events {
		if s, ok := slotOf[tr.Events[i].Src]; ok {
			t.start[s+1]++
		}
	}
	for s := 1; s < len(t.start); s++ {
		t.start[s] += t.start[s-1]
	}
	// Port keys as port<<8 | proto, so a run sorts as integers.
	run := make([]uint32, t.start[len(ips)])
	next := slices.Clone(t.start[:len(ips)])
	for i := range tr.Events {
		e := &tr.Events[i]
		s, ok := slotOf[e.Src]
		if !ok {
			continue
		}
		k := e.Key()
		run[next[s]] = uint32(k.Port)<<8 | uint32(k.Proto)
		next[s]++
		if e.Mirai {
			t.mirai[s] = true
		}
	}
	pairs := 0
	for s := range ips {
		r := run[t.start[s]:t.start[s+1]]
		slices.Sort(r)
		for i := range r {
			if i == 0 || r[i] != r[i-1] {
				pairs++
			}
		}
	}
	t.keys = make([]trace.PortKey, 0, pairs)
	t.pkts = make([]int32, 0, pairs)
	for s := range ips {
		r := run[t.start[s]:t.start[s+1]]
		t.start[s] = int32(len(t.keys))
		for i, k := range r {
			if i > 0 && k == r[i-1] {
				t.pkts[len(t.pkts)-1]++
				continue
			}
			t.keys = append(t.keys, trace.PortKey{Port: uint16(k >> 8), Proto: packet.IPProtocol(k)})
			t.pkts = append(t.pkts, 1)
		}
	}
	t.start[len(ips)] = int32(len(t.keys))
	return t
}

// TallyWords is NewPortTally over the IPv4-shaped words of a space.
func TallyWords(tr *trace.Trace, words []string) *PortTally {
	senders := make([]netutil.IPv4, 0, len(words))
	for _, w := range words {
		if ip, err := netutil.ParseIPv4(w); err == nil {
			senders = append(senders, ip)
		}
	}
	return NewPortTally(tr, senders)
}

// slot returns ip's index in the tally, -1 when it is not listed.
func (t *PortTally) slot(ip netutil.IPv4) int {
	if s, ok := slices.BinarySearch(t.senders, ip); ok {
		return s
	}
	return -1
}

// Inspect builds profiles for every cluster from the trace's events. words
// maps space rows to sender strings; assign is the per-row cluster id;
// labels maps sender → GT class (missing senders count as unknownLabel);
// sil is the per-row silhouette (may be nil).
func Inspect(tr *trace.Trace, words []string, assign []int, sil []float64, labels map[string]string, unknownLabel string) []Profile {
	return TallyWords(tr, words).Inspect(words, assign, sil, labels, unknownLabel)
}

// Inspect is the package-level Inspect over a tally: a word the tally does
// not list is a sender with no events.
func (t *PortTally) Inspect(words []string, assign []int, sil []float64, labels map[string]string, unknownLabel string) []Profile {
	byCluster := map[int][]int{}
	for row, c := range assign {
		byCluster[c] = append(byCluster[c], row)
	}
	ids := make([]int, 0, len(byCluster))
	for c := range byCluster {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	// portAgg is one port's share of a cluster. A sender holds one pair per
	// port, so every pair read adds a sender — except when two words parse
	// to one address: reader marks the second reading of a sender within a
	// cluster, which adds packets, not senders.
	type portAgg struct {
		key           trace.PortKey
		pkts, senders int
	}
	// One set of tables serves every cluster in turn, so the scratch is
	// sized by the widest cluster, not by their sum.
	ports := map[trace.PortKey]int32{} // → index into aggs
	var aggs []portAgg
	sub24 := map[netutil.IPv4]bool{}
	sub16 := map[netutil.IPv4]bool{}
	reader := make([]int, len(t.senders)) // sender → 1 + index of the last cluster that read it
	var out []Profile
	for ci, c := range ids {
		rows := byCluster[c]
		p := Profile{Cluster: c, GTCounts: map[string]int{}}
		clear(ports)
		aggs = aggs[:0]
		clear(sub24)
		clear(sub16)
		mirai := 0
		var silSum float64
		for _, row := range rows {
			ip, err := netutil.ParseIPv4(words[row])
			if err != nil {
				continue
			}
			p.Senders = append(p.Senders, ip)
			sub24[ip.Subnet(24).Base] = true
			sub16[ip.Subnet(16).Base] = true
			label := labels[words[row]]
			if label == "" {
				label = unknownLabel
			}
			p.GTCounts[label]++
			if sil != nil {
				silSum += sil[row]
			}
			s := t.slot(ip)
			if s < 0 {
				continue
			}
			again := reader[s] == ci+1
			reader[s] = ci + 1
			if t.mirai[s] {
				mirai++
			}
			for i := t.start[s]; i < t.start[s+1]; i++ {
				k, n := t.keys[i], int(t.pkts[i])
				p.Packets += n
				ai, ok := ports[k]
				if !ok {
					ai = int32(len(aggs))
					ports[k] = ai
					aggs = append(aggs, portAgg{key: k})
				}
				aggs[ai].pkts += n
				if !again {
					aggs[ai].senders++
				}
			}
		}
		if len(p.Senders) == 0 {
			continue
		}
		p.Ports = len(aggs)
		p.MiraiFrac = float64(mirai) / float64(len(p.Senders))
		p.Subnets24, p.Subnets16 = len(sub24), len(sub16)
		if sil != nil {
			p.AvgSil = silSum / float64(len(rows))
		}
		p.PortShare = make(map[trace.PortKey]float64, len(aggs))
		for _, a := range aggs {
			p.PortShare[a.key] = float64(a.pkts) / float64(p.Packets)
		}
		sort.Slice(aggs, func(i, j int) bool {
			if aggs[i].pkts != aggs[j].pkts {
				return aggs[i].pkts > aggs[j].pkts
			}
			if aggs[i].key.Port != aggs[j].key.Port {
				return aggs[i].key.Port < aggs[j].key.Port
			}
			return aggs[i].key.Proto < aggs[j].key.Proto
		})
		for _, a := range aggs[:min(len(aggs), 5)] {
			p.TopPorts = append(p.TopPorts, trace.PortStat{
				Key:          a.key,
				Packets:      a.pkts,
				TrafficShare: float64(a.pkts) / float64(p.Packets),
				Sources:      a.senders,
			})
		}
		bestLabel, bestN := unknownLabel, 0
		gls := make([]string, 0, len(p.GTCounts))
		for l := range p.GTCounts {
			gls = append(gls, l)
		}
		sort.Strings(gls)
		for _, l := range gls {
			if p.GTCounts[l] > bestN {
				bestLabel, bestN = l, p.GTCounts[l]
			}
		}
		p.Dominant = bestLabel
		p.DomFrac = float64(bestN) / float64(len(p.Senders))
		out = append(out, p)
	}
	return out
}

// Describe produces a short Table 5 style description of the cluster using
// the same heuristics an analyst applies: dominant label, subnet
// concentration, fingerprints, port focus.
func (p Profile) Describe(unknownLabel string) string {
	top := "no traffic"
	if len(p.TopPorts) > 0 {
		t := p.TopPorts[0]
		top = fmt.Sprintf("%.0f%% of traffic to %s", t.TrafficShare*100, t.Key)
	}
	switch {
	case p.Dominant != unknownLabel && p.DomFrac >= 0.5:
		return fmt.Sprintf("known scanner %s (%d/%d senders); %s", p.Dominant, p.GTCounts[p.Dominant], len(p.Senders), top)
	case p.MiraiFrac >= 0.5:
		return fmt.Sprintf("Mirai-like botnet activity (%.0f%% fingerprinted senders); %s", p.MiraiFrac*100, top)
	case p.Subnets24 == 1:
		return fmt.Sprintf("coordinated scan from a single /24 (%s); %s", p.Senders[0].Subnet(24), top)
	case p.Subnets16 == 1:
		return fmt.Sprintf("coordinated scan from a single /16 (%s); %s", p.Senders[0].Subnet(16), top)
	default:
		return fmt.Sprintf("distributed senders across %d /24s targeting %d ports; %s", p.Subnets24, p.Ports, top)
	}
}
