// Package darksim synthesises darknet traffic with the population structure
// of the paper's 30-day /24 campus darknet trace: the nine ground-truth
// scanner classes of Table 2 (sender counts, port mixes, temporal
// behaviour), the coordinated "unknownN" groups of Table 5, the Shadowserver
// sub-groups, a heavy-tailed uncoordinated background, and one-shot
// backscatter. The pipeline under test consumes only
// (time, source, destination port/protocol) tuples, so reproducing these
// co-occurrence structures reproduces the phenomena the paper measures.
//
// All populations and rates scale with Config.Scale and Config.Rate so the
// same structure can be generated laptop-sized; class proportions are
// preserved (with small floors so minority classes stay classifiable).
package darksim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// Ground-truth class names (Table 2). GT1 (Mirai) is never exported as a
// feed: like the paper, it is re-derived from the packet fingerprint.
const (
	ClassMirai          = "mirai-like"
	ClassCensys         = "censys"
	ClassStretchoid     = "stretchoid"
	ClassInternetCensus = "internet-census"
	ClassBinaryEdge     = "binaryedge"
	ClassSharashka      = "sharashka"
	ClassIpip           = "ipip"
	ClassShodan         = "shodan"
	ClassEnginUmich     = "engin-umich"
	ClassUnknown        = "unknown"
)

// Config controls the synthesis.
type Config struct {
	Seed  uint64  // PRNG seed; 0 means 1
	Days  int     // trace length in days; 0 means 30
	Start int64   // Unix seconds of day 0; 0 means 2021-03-02T00:00:00Z
	Scale float64 // sender population scale vs the paper; 0 means 0.05
	Rate  float64 // per-sender packet rate scale vs the paper; 0 means 0.10
	// Darknet is the monitored block; the zero value means 198.18.0.0/24
	// (RFC 2544 benchmarking range).
	Darknet netutil.Subnet
	// NoBackground drops the uncoordinated background and backscatter
	// populations, leaving only the structured groups (useful in tests).
	NoBackground bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Days == 0 {
		c.Days = 30
	}
	if c.Start == 0 {
		c.Start = time.Date(2021, 3, 2, 0, 0, 0, 0, time.UTC).Unix()
	}
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.Rate == 0 {
		c.Rate = 0.10
	}
	if c.Darknet.Bits == 0 {
		c.Darknet = netutil.MustParseSubnet("198.18.0.0/24")
	}
	return c
}

// Output is a generated dataset.
type Output struct {
	Trace *trace.Trace
	// Feeds lists the published scanner-project IPs per GT class (GT2–GT9),
	// playing the role of Shodan/Censys/... public IP lists.
	Feeds map[string][]netutil.IPv4
	// Groups records every coordinated population the generator planted,
	// including ones absent from the feeds (Shadowserver tiers, unknown1–8,
	// the Mirai population). Cluster-discovery experiments validate against
	// it.
	Groups map[string][]netutil.IPv4
	Config Config
}

// Generate builds a dataset. The same Config always yields the same bytes.
func Generate(cfg Config) *Output {
	cfg = cfg.withDefaults()
	g := newGen(cfg, cfg.Seed, senderBudget(cfg))
	g.out = &Output{
		Feeds:  map[string][]netutil.IPv4{},
		Groups: map[string][]netutil.IPv4{},
		Config: cfg,
	}
	for _, spec := range groupSpecs() {
		g.runGroup(spec)
	}
	if !cfg.NoBackground {
		g.background()
		g.backscatter()
	}
	g.out.Trace = g.trace()
	return g.out
}

// senderBudget returns how many addresses Generate allocates under cfg:
// every group's members and /24 bases, then the background and backscatter
// senders.
func senderBudget(cfg Config) int {
	n := 0
	for _, spec := range groupSpecs() {
		n += spec.size(cfg) + spec.spread24
	}
	if !cfg.NoBackground {
		alwaysOn, churny := backgroundSizes(cfg)
		n += alwaysOn + churny + backscatterSize(cfg)
	}
	return n
}

// chunkEvents is how many events one emission chunk holds (96 KiB).
const chunkEvents = 4096

// gen carries generation state.
type gen struct {
	cfg  Config
	rng  *netutil.Rand
	used map[netutil.IPv4]bool
	// chunks hold the emitted events in emission order, each chunkEvents
	// long but the last: a full chunk is never copied or regrown.
	chunks [][]trace.Event
	// perSec[s+1] counts the events emitted at second s since Start, the
	// histogram trace's counting pass starts from.
	perSec []int32
	out    *Output
}

// newGen starts a generation over cfg's span, its address set presized
// for senders addresses.
func newGen(cfg Config, seed uint64, senders int) *gen {
	return &gen{
		cfg:    cfg,
		rng:    netutil.NewRand(seed),
		used:   make(map[netutil.IPv4]bool, senders),
		perSec: make([]int32, int64(cfg.Days)*86400+1),
	}
}

func (g *gen) horizon() int64 { return g.cfg.Start + int64(g.cfg.Days)*86400 }

// emit appends one event, choosing a random darknet destination.
func (g *gen) emit(ts int64, src netutil.IPv4, key trace.PortKey, mirai bool) {
	if ts < g.cfg.Start || ts >= g.horizon() {
		return
	}
	dst := g.cfg.Darknet.Addr(uint64(g.rng.Intn(int(g.cfg.Darknet.Size()))))
	if key.Proto != packet.IPProtocolTCP {
		mirai = false // the fingerprint is a TCP sequence-number trick
	}
	if len(g.chunks) == 0 || len(g.chunks[len(g.chunks)-1]) == chunkEvents {
		g.chunks = append(g.chunks, make([]trace.Event, 0, chunkEvents))
	}
	last := &g.chunks[len(g.chunks)-1]
	*last = append(*last, trace.Event{
		Ts:    ts,
		Src:   src,
		Dst:   dst,
		Port:  key.Port,
		Proto: key.Proto,
		Mirai: mirai,
	})
	g.perSec[ts-g.cfg.Start+1]++
}

// trace hands the emitted events over in time order. emit admits only
// [Start, horizon) and counts each second, so one stable scatter keyed by
// the second since Start orders them: ties keep emission order, the bytes a
// stable sort gives. Each chunk is released once scattered, so the
// collector may reclaim the emission copy while the ordered one fills. The
// chunks live only here, never in a daemon's window (DESIGN.md "One sort, in
// place", "Emission without growth"), and New's look finds nothing to do.
func (g *gen) trace() *trace.Trace {
	next := g.perSec
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	out := make([]trace.Event, next[len(next)-1])
	start := g.cfg.Start
	for i, chunk := range g.chunks {
		for _, e := range chunk {
			out[next[e.Ts-start]] = e
			next[e.Ts-start]++
		}
		g.chunks[i] = nil
	}
	g.chunks, g.perSec = nil, nil
	return trace.New(out)
}

// allocIP returns an unused address inside pool (or anywhere routable-ish
// when pool is the zero Subnet).
func (g *gen) allocIP(pool netutil.Subnet) netutil.IPv4 {
	for i := 0; ; i++ {
		var ip netutil.IPv4
		if pool.Bits == 0 {
			// Any address with a plausible unicast first octet.
			ip = netutil.IPv4(g.rng.Uint32())
			first := uint32(ip >> 24)
			if first == 0 || first == 10 || first == 127 || first >= 224 ||
				g.cfg.Darknet.Contains(ip) {
				continue
			}
		} else {
			ip = pool.Addr(uint64(g.rng.Intn(int(pool.Size()))))
			if g.cfg.Darknet.Contains(ip) {
				continue
			}
		}
		if !g.used[ip] {
			g.used[ip] = true
			return ip
		}
		if i > 1<<20 {
			panic(fmt.Sprintf("darksim: address pool %v exhausted", pool))
		}
	}
}

// scaled applies the population scale with a floor.
func (c Config) scaled(n, floor int) int {
	v := int(math.Round(float64(n) * c.Scale))
	if v < floor {
		v = floor
	}
	return v
}

// rate applies the packet-rate scale to a paper-reported daily packet count.
// The floor keeps every structured sender above the 10-packet active-sender
// threshold over the configured trace length, whatever Rate and Days are.
func (g *gen) rate(perDay float64, min float64) float64 {
	if floor := 15.0 / float64(g.cfg.Days); min < floor {
		min = floor
	}
	v := perDay * g.cfg.Rate
	if v < min {
		v = min
	}
	return v
}

// poisson draws a Poisson variate (Knuth's method; λ here is small).
func (g *gen) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large λ keeps this O(1).
		v := int(math.Round(g.rng.NormFloat64()*math.Sqrt(lambda) + lambda))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ips records a group's member addresses in the output.
func (g *gen) record(spec groupSpec, members []netutil.IPv4) {
	g.out.Groups[spec.name] = members
	if spec.gtClass != "" {
		g.out.Feeds[spec.gtClass] = append(g.out.Feeds[spec.gtClass], members...)
	}
}

// SortedGroupNames returns the planted group names in a stable order.
func (o *Output) SortedGroupNames() []string {
	names := make([]string, 0, len(o.Groups))
	for n := range o.Groups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GroundTruth builds the sender → class map the labeling stage would derive:
// feed classes from the exported lists. The Mirai class is intentionally
// absent — derive it from the trace fingerprint via the labels package.
func (o *Output) GroundTruth() map[netutil.IPv4]string {
	gt := make(map[netutil.IPv4]string)
	for class, ips := range o.Feeds {
		for _, ip := range ips {
			gt[ip] = class
		}
	}
	return gt
}

// tcpKey/udpKey/icmpKey are small helpers for the spec tables.
func tcpKey(p uint16) trace.PortKey { return trace.PortKey{Port: p, Proto: packet.IPProtocolTCP} }
func udpKey(p uint16) trace.PortKey { return trace.PortKey{Port: p, Proto: packet.IPProtocolUDP} }
func icmpKey() trace.PortKey        { return trace.PortKey{Proto: packet.IPProtocolICMPv4} }
