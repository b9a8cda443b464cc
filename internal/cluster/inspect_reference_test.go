package cluster

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// inspectReference is Inspect as it was while it copied every event of the
// trace into a per-sender map and kept a sender set per port per cluster —
// kept as the oracle for the indexed implementation. (The proto tie-break
// in the port ranking is the one line added since: both sides need it to
// be deterministic when 53/tcp and 53/udp tie.)
func inspectReference(tr *trace.Trace, words []string, assign []int, sil []float64, labels map[string]string, unknownLabel string) []Profile {
	byCluster := map[int][]int{}
	for row, c := range assign {
		byCluster[c] = append(byCluster[c], row)
	}
	events := map[netutil.IPv4][]trace.Event{}
	for _, e := range tr.Events {
		events[e.Src] = append(events[e.Src], e)
	}
	ids := make([]int, 0, len(byCluster))
	for c := range byCluster {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	var out []Profile
	for _, c := range ids {
		rows := byCluster[c]
		p := Profile{Cluster: c, GTCounts: map[string]int{}, PortShare: map[trace.PortKey]float64{}}
		sub24 := map[netutil.IPv4]bool{}
		sub16 := map[netutil.IPv4]bool{}
		portPkts := map[trace.PortKey]int{}
		portSenders := map[trace.PortKey]map[netutil.IPv4]bool{}
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
			hasMirai := false
			for _, e := range events[ip] {
				p.Packets++
				k := e.Key()
				portPkts[k]++
				if portSenders[k] == nil {
					portSenders[k] = map[netutil.IPv4]bool{}
				}
				portSenders[k][ip] = true
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
		p.Ports = len(portPkts)
		p.MiraiFrac = float64(mirai) / float64(len(p.Senders))
		p.Subnets24, p.Subnets16 = len(sub24), len(sub16)
		if sil != nil {
			p.AvgSil = silSum / float64(len(rows))
		}
		type ps struct {
			k trace.PortKey
			n int
		}
		all := make([]ps, 0, len(portPkts))
		for k, n := range portPkts {
			all = append(all, ps{k, n})
			if p.Packets > 0 {
				p.PortShare[k] = float64(n) / float64(p.Packets)
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			if all[i].k.Port != all[j].k.Port {
				return all[i].k.Port < all[j].k.Port
			}
			return all[i].k.Proto < all[j].k.Proto
		})
		for i := 0; i < len(all) && i < 5; i++ {
			p.TopPorts = append(p.TopPorts, trace.PortStat{
				Key:          all[i].k,
				Packets:      all[i].n,
				TrafficShare: float64(all[i].n) / float64(p.Packets),
				Sources:      len(portSenders[all[i].k]),
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

// wideFixture is the served space of the serve-wide benchmark workload, in
// miniature or in full: a darksim trace, its active senders as the space's
// words, the planted groups as both the clustering and the labels (what
// Louvain recovers, per the Table 5 pins) with the ungrouped senders spread
// over a few catch-all clusters by /16, and per-row silhouettes.
func wideFixture(scale float64) (tr *trace.Trace, words []string, assign []int, sil []float64, labels map[string]string) {
	out := darksim.Generate(darksim.Config{Seed: 3, Days: 2, Scale: scale, Rate: 0.1})
	tr = out.Trace
	classes := make([]string, 0, len(out.Groups))
	for class := range out.Groups {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	labels = map[string]string{}
	group := map[netutil.IPv4]int{}
	for c, class := range classes {
		for _, ip := range out.Groups[class] {
			labels[ip.String()] = class
			group[ip] = c
		}
	}
	var senders []netutil.IPv4
	for ip := range tr.ActiveSenders(10) {
		senders = append(senders, ip)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	for i, ip := range senders {
		c, ok := group[ip]
		if !ok {
			c = len(classes) + int(ip.Subnet(16).Base>>16)%8
		}
		words = append(words, ip.String())
		assign = append(assign, c)
		sil = append(sil, float64(i%17)/16-0.25)
	}
	return tr, words, assign, sil, labels
}

func TestInspectMatchesReference(t *testing.T) {
	tr, words, assign, sil, labels := wideFixture(0.02)
	// A word that is no IPv4, a sender with no events in the trace, and two
	// words that parse to one sender must be handled as before.
	words = append(words, "<pad>", "203.0.113.200", "+"+words[0])
	assign = append(assign, 0, 1, assign[0])
	sil = append(sil, 0.5, 0.5, 0.5)
	for _, s := range [][]float64{sil, nil} {
		got := Inspect(tr, words, assign, s, labels, "unknown")
		want := inspectReference(tr, words, assign, s, labels, "unknown")
		if len(got) < 10 {
			t.Fatalf("fixture produced %d profiles", len(got))
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("profile %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			t.Fatalf("%d profiles, reference %d", len(got), len(want))
		}
	}
}

// TestInspectAllocsPerEvent pins the indexed inspection on the serve-wide
// trace (≈ 190k events, ≈ 4k senders served): four bytes of index per event
// plus the profiles — under 8 B/event, where the per-sender event copy
// alone cost the window again (40 B/event then).
func TestInspectAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 190k-event serve-wide trace")
	}
	tr, words, assign, sil, labels := wideFixture(0.1)
	if tr.Len() < 150000 {
		t.Fatalf("fixture holds %d events, want the ≈ 190k of serve-wide", tr.Len())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	profiles := Inspect(tr, words, assign, sil, labels, "unknown")
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Len())
	t.Logf("%d events, %d senders, %d profiles: %.2f B/event", tr.Len(), len(words), len(profiles), perEvent)
	if perEvent > 8 {
		t.Errorf("Inspect allocated %.2f bytes per event, want <= 8", perEvent)
	}
}
