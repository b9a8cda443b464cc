package cluster

import (
	"fmt"
	"sort"

	"github.com/darkvec/darkvec/internal/metrics"
	"github.com/darkvec/darkvec/internal/netutil"
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

// senderIndex lists, per sender of a space, the indices of its events in
// trace order: a counting sort by sender over the space's senders only, at
// four bytes an event (int32 indices: a trace of 2^31 events is 48 GiB of
// them), where a per-sender copy of the events cost the whole window again
// for every generation.
type senderIndex struct {
	slot  []int32        // space row → sender slot, -1 for a word that is no IPv4
	ips   []netutil.IPv4 // slot → sender
	start []int32        // slot → offset into idx; len = slots+1
	idx   []int32        // event indices, grouped by slot, trace order within one
}

func indexSenders(tr *trace.Trace, words []string) senderIndex {
	x := senderIndex{slot: make([]int32, len(words)), ips: make([]netutil.IPv4, 0, len(words))}
	slotOf := make(map[netutil.IPv4]int32, len(words))
	for row, w := range words {
		ip, err := netutil.ParseIPv4(w)
		if err != nil {
			x.slot[row] = -1
			continue
		}
		s, ok := slotOf[ip]
		if !ok {
			s = int32(len(x.ips))
			slotOf[ip] = s
			x.ips = append(x.ips, ip)
		}
		x.slot[row] = s
	}
	x.start = make([]int32, len(x.ips)+1)
	for _, e := range tr.Events {
		if s, ok := slotOf[e.Src]; ok {
			x.start[s+1]++
		}
	}
	for s := 1; s < len(x.start); s++ {
		x.start[s] += x.start[s-1]
	}
	x.idx = make([]int32, x.start[len(x.ips)])
	next := append([]int32(nil), x.start[:len(x.ips)]...)
	for i, e := range tr.Events {
		if s, ok := slotOf[e.Src]; ok {
			x.idx[next[s]] = int32(i)
			next[s]++
		}
	}
	return x
}

// Inspect builds profiles for every cluster. words maps space rows to sender
// strings; assign is the per-row cluster id; labels maps sender → GT class
// (missing senders count as unknownLabel); sil is the per-row silhouette
// (may be nil).
func Inspect(tr *trace.Trace, words []string, assign []int, sil []float64, labels map[string]string, unknownLabel string) []Profile {
	byCluster := map[int][]int{}
	for row, c := range assign {
		byCluster[c] = append(byCluster[c], row)
	}
	index := indexSenders(tr, words)
	ids := make([]int, 0, len(byCluster))
	for c := range byCluster {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	// portAgg is one port's share of a cluster. A sender's events are read
	// in one run, so "a sender not yet counted for this port" is "not the
	// sender that touched it last" — no per-port sender set. (Two words
	// that parse to one address read that sender's run twice; reader marks
	// the second reading so it adds packets, not senders.)
	type portAgg struct {
		key           trace.PortKey
		pkts, senders int
		last          int32 // slot of the last sender counted
	}
	// One set of tables serves every cluster in turn, so the scratch is
	// sized by the widest cluster, not by their sum.
	ports := map[trace.PortKey]int32{} // → index into aggs
	var aggs []portAgg
	sub24 := map[netutil.IPv4]bool{}
	sub16 := map[netutil.IPv4]bool{}
	reader := make([]int, len(index.ips)) // slot → 1 + index of the last cluster that read it
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
			slot := index.slot[row]
			if slot < 0 {
				continue
			}
			again := reader[slot] == ci+1
			reader[slot] = ci + 1
			ip := index.ips[slot]
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
			hasMirai := false
			for _, i := range index.idx[index.start[slot]:index.start[slot+1]] {
				e := &tr.Events[i]
				p.Packets++
				k := e.Key()
				ai, ok := ports[k]
				if !ok {
					ai = int32(len(aggs))
					ports[k] = ai
					aggs = append(aggs, portAgg{key: k, last: -1})
				}
				a := &aggs[ai]
				a.pkts++
				if a.last != slot && !again {
					a.last = slot
					a.senders++
				}
				if e.Mirai {
					hasMirai = true
				}
			}
			if hasMirai {
				mirai++
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

// PortJaccard returns the Jaccard index between the port sets of two
// profiles (§7.3.1's inter-cluster overlap measure).
func PortJaccard(a, b Profile) float64 {
	sa := map[trace.PortKey]bool{}
	sb := map[trace.PortKey]bool{}
	for k := range a.PortShare {
		sa[k] = true
	}
	for k := range b.PortShare {
		sb[k] = true
	}
	return metrics.Jaccard(sa, sb)
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
