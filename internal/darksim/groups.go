package darksim

import (
	"math"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// patternKind selects a group's temporal behaviour.
type patternKind int

const (
	// patCoordRounds: the whole group scans in synchronised rounds a few
	// times a day — the signature of scan projects (Censys, BinaryEdge, …).
	patCoordRounds patternKind = iota
	// patRegular: clockwork probes every periodH hours in a tight window
	// (unknown1/2/3/7/8 of Table 5).
	patRegular
	// patIrregular: per-sender independent random bursts; no cross-sender
	// synchronisation (Stretchoid — the class the paper's embedding
	// struggles with).
	patIrregular
	// patImpulsive: the whole group fires within minutes, once a day
	// (Engin-Umich's DNS impulses, Fig 9b).
	patImpulsive
	// patChurn: botnet membership churn — independent senders, active
	// windows of days, heavy aggregate volume (Mirai-like).
	patChurn
	// patRamp: worm-like growth: members activate progressively and then
	// scan in synchronised rounds (the ADB worm of Fig 15).
	patRamp
)

// weightedPort is one named heavy-hitter port of a group's traffic mix.
type weightedPort struct {
	key trace.PortKey
	w   float64
}

// groupSpec declares one planted population at paper scale.
type groupSpec struct {
	name      string // group identity (Table 2 class or Table 5 cluster)
	gtClass   string // feed class; "" keeps the group out of the ground truth
	senders   int    // last-day population at Scale=1 (Table 2 / Table 5)
	floor     int    // minimum population after scaling
	pool      string // CIDR allocation pool; "" draws global addresses
	spread24  int    // >0: allocate inside this many random /24 blocks
	named     []weightedPort
	poolPorts int     // size of the random long-tail port pool
	poolSeed  uint64  // distinct tails per group
	perDay    float64 // per-sender daily packets at Rate=1 (Table 2)
	miraiFrac float64 // fraction of senders stamping the Mirai fingerprint
	teams     int     // sub-teams with rotating schedules and port slices (Censys)
	periodH   float64 // patRegular: hours between probes
	rounds    int     // patCoordRounds/patRamp: rounds per day
	pattern   patternKind
}

// groupSpecs returns every planted population. Counts, port mixes and
// behaviours follow Tables 2 and 5 of the paper.
func groupSpecs() []groupSpec {
	return []groupSpec{
		{
			// GT1 core: fingerprinted Mirai-like senders beyond the tight
			// unknown5 cluster. Labeled via the packet fingerprint.
			name: "mirai-core", senders: 5939, floor: 40, perDay: 12,
			miraiFrac: 1.0, pattern: patChurn, poolPorts: 70, poolSeed: 11,
			named: []weightedPort{
				{tcpKey(23), 0.896}, {tcpKey(2323), 0.039}, {tcpKey(5555), 0.017},
				{tcpKey(26), 0.013}, {tcpKey(9530), 0.0084},
			},
		},
		{
			// Table 5 unknown5: a tight Mirai-like cluster, 71% of senders
			// fingerprinted; the rest land in the Unknown class and are what
			// the clustering stage should attach to the botnet.
			name: "unknown5-mirai", senders: 1412, floor: 24, perDay: 12,
			miraiFrac: 0.71, pattern: patCoordRounds, rounds: 6,
			poolPorts: 205, poolSeed: 12,
			named: []weightedPort{
				{tcpKey(23), 0.877}, {tcpKey(2323), 0.02}, {udpKey(2000), 0.01},
			},
		},
		{
			name: "censys", gtClass: ClassCensys, senders: 336, floor: 14,
			perDay: 693, pattern: patCoordRounds, rounds: 6, teams: 7,
			pool: "192.35.168.0/22", poolPorts: 11000, poolSeed: 13,
			named: []weightedPort{
				{tcpKey(5060), 0.034}, {tcpKey(2000), 0.029}, {tcpKey(443), 0.004},
				{tcpKey(445), 0.004}, {tcpKey(5432), 0.004},
			},
		},
		{
			name: "stretchoid", gtClass: ClassStretchoid, senders: 104, floor: 10,
			perDay: 550, pattern: patIrregular,
			pool: "192.241.192.0/20", poolPorts: 86, poolSeed: 14,
			named: []weightedPort{
				{tcpKey(22), 0.035}, {tcpKey(443), 0.035}, {tcpKey(21), 0.027},
				{tcpKey(9200), 0.027}, {tcpKey(139), 0.018},
			},
		},
		{
			name: "internet-census", gtClass: ClassInternetCensus, senders: 103,
			floor: 10, perDay: 91, pattern: patCoordRounds, rounds: 4,
			pool: "89.248.168.0/22", poolPorts: 226, poolSeed: 15,
			named: []weightedPort{
				{tcpKey(5060), 0.104}, {udpKey(161), 0.098}, {tcpKey(2000), 0.077},
				{tcpKey(443), 0.065}, {udpKey(53), 0.029},
			},
		},
		{
			name: "binaryedge", gtClass: ClassBinaryEdge, senders: 101, floor: 10,
			perDay: 76, pattern: patCoordRounds, rounds: 4,
			pool: "143.202.16.0/22", poolPorts: 16, poolSeed: 16,
			named: []weightedPort{
				{tcpKey(15), 0.10}, {tcpKey(3000), 0.096}, {tcpKey(4222), 0.067},
				{tcpKey(587), 0.066}, {tcpKey(9100), 0.058},
			},
		},
		{
			name: "sharashka", gtClass: ClassSharashka, senders: 50, floor: 10,
			perDay: 109, pattern: patCoordRounds, rounds: 5,
			pool: "45.82.64.0/22", poolPorts: 480, poolSeed: 17,
			named: []weightedPort{
				{tcpKey(5986), 0.0048}, {tcpKey(2103), 0.0048}, {tcpKey(2052), 0.0044},
				{tcpKey(3005), 0.0044}, {tcpKey(2087), 0.0044},
			},
		},
		{
			name: "ipip", gtClass: ClassIpip, senders: 49, floor: 10,
			perDay: 354, pattern: patCoordRounds, rounds: 5,
			pool: "103.56.16.0/22", poolPorts: 36, poolSeed: 18,
			named: []weightedPort{
				{tcpKey(5060), 0.415}, {icmpKey(), 0.109}, {tcpKey(8000), 0.023},
				{tcpKey(8888), 0.021}, {tcpKey(22), 0.021},
			},
		},
		{
			name: "shodan", gtClass: ClassShodan, senders: 23, floor: 10,
			perDay: 590, pattern: patCoordRounds, rounds: 3,
			pool: "71.6.128.0/20", poolPorts: 344, poolSeed: 19,
			named: []weightedPort{
				{tcpKey(443), 0.009}, {tcpKey(80), 0.009}, {tcpKey(2222), 0.009},
				{tcpKey(2000), 0.007}, {tcpKey(2087), 0.007},
			},
		},
		{
			name: "engin-umich", gtClass: ClassEnginUmich, senders: 10, floor: 10,
			perDay: 51, pattern: patImpulsive,
			pool: "141.212.120.0/23", poolPorts: 0, poolSeed: 20,
			named: []weightedPort{{udpKey(53), 1.0}},
		},
		// Shadowserver: one /16, three tiers targeting the same port pool
		// with different intensity (§7.3.2). Not in any feed — the paper's
		// authors did not know it either; clustering must surface it.
		{
			name: "shadowserver-c25", senders: 61, floor: 8, perDay: 32,
			pattern: patCoordRounds, rounds: 4,
			pool: "184.105.0.0/18", poolPorts: 45, poolSeed: 21,
			named: []weightedPort{{udpKey(623), 0.10}, {udpKey(123), 0.10}},
		},
		{
			name: "shadowserver-c29", senders: 36, floor: 6, perDay: 30,
			pattern: patCoordRounds, rounds: 4,
			pool: "184.105.64.0/18", poolPorts: 45, poolSeed: 21,
			named: []weightedPort{{udpKey(5683), 0.125}, {udpKey(3389), 0.125}},
		},
		{
			name: "shadowserver-c37", senders: 16, floor: 5, perDay: 34,
			pattern: patCoordRounds, rounds: 4,
			pool: "184.105.128.0/18", poolPorts: 45, poolSeed: 21,
			named: []weightedPort{{udpKey(111), 0.315}, {udpKey(137), 0.315}},
		},
		{
			name: "unknown1-netbios", senders: 85, floor: 10, perDay: 7,
			pattern: patRegular, periodH: 2,
			pool: "38.21.77.0/24", poolPorts: 17, poolSeed: 22,
			named: []weightedPort{{udpKey(137), 0.60}},
		},
		{
			name: "unknown2-smtp", senders: 10, floor: 8, perDay: 5.4,
			pattern: patRegular, periodH: 4,
			pool: "34.89.120.0/24", poolPorts: 11, poolSeed: 23,
			named: []weightedPort{{tcpKey(25), 0.76}},
		},
		{
			name: "unknown3-smb", senders: 61, floor: 10, perDay: 6,
			pattern: patRegular, periodH: 3, spread24: 23, poolPorts: 4,
			poolSeed: 24,
			named:    []weightedPort{{tcpKey(445), 0.995}},
		},
		{
			name: "unknown4-adb", senders: 525, floor: 16, perDay: 22,
			pattern: patRamp, rounds: 6, poolPorts: 140, poolSeed: 25,
			named: []weightedPort{{tcpKey(5555), 0.75}},
		},
		{
			name: "unknown6-ssh", senders: 623, floor: 16, perDay: 21,
			pattern: patCoordRounds, rounds: 8, poolPorts: 115, poolSeed: 26,
			named: []weightedPort{{tcpKey(22), 0.88}},
		},
		{
			name: "unknown7-horizontal", senders: 158, floor: 10, perDay: 15,
			pattern: patRegular, periodH: 4, poolPorts: 148, poolSeed: 27,
		},
		{
			name: "unknown8-horizontal", senders: 22, floor: 8, perDay: 24,
			pattern: patRegular, periodH: 1, poolPorts: 69, poolSeed: 28,
		},
	}
}

// portPool deterministically derives a group's long-tail port set.
func portPool(seed uint64, n int) []trace.PortKey {
	if n <= 0 {
		return nil
	}
	r := netutil.NewRand(seed*0x9e3779b9 + 7)
	seen := map[trace.PortKey]bool{}
	out := make([]trace.PortKey, 0, n)
	for len(out) < n {
		k := trace.PortKey{
			Port:  uint16(1 + r.Intn(65535)),
			Proto: packet.IPProtocolTCP,
		}
		if r.Float64() < 0.25 {
			k.Proto = packet.IPProtocolUDP
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// samplePort draws a destination from named weights + uniform tail.
func samplePort(r *netutil.Rand, named []weightedPort, pool []trace.PortKey) trace.PortKey {
	u := r.Float64()
	for _, wp := range named {
		if u < wp.w {
			return wp.key
		}
		u -= wp.w
	}
	if len(pool) > 0 {
		return pool[r.Intn(len(pool))]
	}
	if len(named) > 0 {
		return named[0].key
	}
	return tcpKey(0)
}

// size returns how many members the group has under cfg.
func (spec groupSpec) size(cfg Config) int {
	n := cfg.scaled(spec.senders, spec.floor)
	if spec.teams > 0 && n < 2*spec.teams {
		n = 2 * spec.teams
	}
	return n
}

// runGroup allocates members and emits the group's events.
func (g *gen) runGroup(spec groupSpec) {
	members := g.allocMembers(spec, spec.size(g.cfg))
	g.record(spec, members)
	pool := portPool(spec.poolSeed, spec.poolPorts)
	perDay := g.rate(spec.perDay, 0.6)

	switch spec.pattern {
	case patCoordRounds:
		g.coordRounds(spec, members, pool, perDay, nil)
	case patRamp:
		act := make([]int, len(members))
		for i := range members {
			act[i] = i * g.cfg.Days / max(1, len(members))
		}
		g.coordRounds(spec, members, pool, perDay, act)
	case patRegular:
		g.regular(spec, members, pool, perDay)
	case patIrregular:
		g.irregular(spec, members, pool, perDay)
	case patImpulsive:
		g.impulsive(spec, members, pool, perDay)
	case patChurn:
		g.churn(spec, members, pool, perDay)
	}
}

// allocMembers assigns source addresses per the spec's pool strategy.
func (g *gen) allocMembers(spec groupSpec, n int) []netutil.IPv4 {
	members := make([]netutil.IPv4, 0, n)
	switch {
	case spec.spread24 > 0:
		// A handful of random /24s (unknown3's 23 subnets).
		blocks := make([]netutil.Subnet, 0, spec.spread24)
		for len(blocks) < spec.spread24 {
			base := g.allocIP(netutil.Subnet{})
			blocks = append(blocks, base.Subnet(24))
		}
		for i := 0; i < n; i++ {
			members = append(members, g.allocIP(blocks[i%len(blocks)]))
		}
	case spec.pool != "":
		pool := netutil.MustParseSubnet(spec.pool)
		for i := 0; i < n; i++ {
			members = append(members, g.allocIP(pool))
		}
	default:
		for i := 0; i < n; i++ {
			members = append(members, g.allocIP(netutil.Subnet{}))
		}
	}
	return members
}

// teamPool slices the long-tail pool into per-team sets with ~10% overlap,
// giving the low inter-team port Jaccard of §7.3.1.
func teamPool(pool []trace.PortKey, team, teams int, r *netutil.Rand) []trace.PortKey {
	if teams <= 1 || len(pool) < teams {
		return pool
	}
	per := len(pool) / teams
	out := append([]trace.PortKey(nil), pool[team*per:(team+1)*per]...)
	for i := 0; i < per/10; i++ {
		out = append(out, pool[r.Intn(len(pool))])
	}
	return out
}

// coordRounds emits synchronised scanning rounds. activation, when non-nil,
// holds each member's first active day (patRamp).
func (g *gen) coordRounds(spec groupSpec, members []netutil.IPv4, pool []trace.PortKey, perDay float64, activation []int) {
	rounds := spec.rounds
	if rounds <= 0 {
		rounds = 4
	}
	teams := spec.teams
	if teams <= 0 {
		teams = 1
	}
	teamPools := make([][]trace.PortKey, teams)
	for t := 0; t < teams; t++ {
		teamPools[t] = teamPool(pool, t, teams, g.rng)
	}
	miraiCut := int(spec.miraiFrac * float64(len(members)))
	for day := 0; day < g.cfg.Days; day++ {
		hours := g.rng.Perm(24)[:rounds]
		for _, h := range hours {
			base := g.cfg.Start + int64(day)*86400 + int64(h)*3600
			for i, src := range members {
				if activation != nil && day < activation[i] {
					continue
				}
				team := i % teams
				rate := perDay / float64(rounds)
				if teams > 1 {
					// Rotating heavy duty: a team works hardest on "its"
					// days, keeping a light presence otherwise so every
					// member stays observable on the last day (Fig 12).
					if day%teams == team {
						rate *= 3.0
					} else {
						rate *= 0.25
					}
				}
				pkts := g.poisson(rate)
				if day%max(1, teams) == 0 && pkts == 0 && g.rng.Float64() < 0.3 {
					pkts = 1 // keep the active-sender filter satisfied
				}
				for p := 0; p < pkts; p++ {
					ts := base + g.rng.Int63n(3600)
					g.emit(ts, src, samplePort(g.rng, spec.named, teamPools[team]), i < miraiCut)
				}
			}
		}
	}
}

// regular emits clockwork probes: every periodH hours the whole group sends
// within a 15-minute window.
func (g *gen) regular(spec groupSpec, members []netutil.IPv4, pool []trace.PortKey, perDay float64) {
	period := int64(spec.periodH * 3600)
	if period <= 0 {
		period = 3600
	}
	ticksPerDay := float64(86400) / float64(period)
	perTick := perDay / ticksPerDay
	phase := g.rng.Int63n(period)
	for ts := g.cfg.Start + phase; ts < g.horizon(); ts += period {
		for _, src := range members {
			pkts := g.poisson(perTick)
			if pkts == 0 && g.rng.Float64() < perTick {
				pkts = 1
			}
			for p := 0; p < pkts; p++ {
				g.emit(ts+g.rng.Int63n(900), src, samplePort(g.rng, spec.named, pool), false)
			}
		}
	}
}

// irregular emits mostly independent per-sender bursts at random times —
// the pattern that defeats co-occurrence learning (Stretchoid, Fig 9a). A
// third of the bursts follow a loose shared schedule, matching the partial
// recall the paper still obtains on the class.
func (g *gen) irregular(spec groupSpec, members []netutil.IPv4, pool []trace.PortKey, perDay float64) {
	span := int64(g.cfg.Days) * 86400
	shared := make([]int64, g.cfg.Days)
	for i := range shared {
		shared[i] = g.cfg.Start + g.rng.Int63n(span)
	}
	total := perDay * float64(g.cfg.Days)
	for _, src := range members {
		bursts := int(math.Ceil(total / 12))
		for b := 0; b < bursts; b++ {
			var start int64
			if g.rng.Float64() < 0.40 {
				start = shared[g.rng.Intn(len(shared))]
			} else {
				start = g.cfg.Start + g.rng.Int63n(span)
			}
			pkts := 6 + g.rng.Intn(12)
			for p := 0; p < pkts; p++ {
				g.emit(start+g.rng.Int63n(600), src, samplePort(g.rng, spec.named, pool), false)
			}
		}
	}
}

// impulsive emits one short, fully synchronised impulse per day.
func (g *gen) impulsive(spec groupSpec, members []netutil.IPv4, pool []trace.PortKey, perDay float64) {
	for day := 0; day < g.cfg.Days; day++ {
		base := g.cfg.Start + int64(day)*86400 + g.rng.Int63n(86400-300)
		for _, src := range members {
			pkts := g.poisson(perDay)
			if pkts == 0 {
				pkts = 1
			}
			for p := 0; p < pkts; p++ {
				g.emit(base+g.rng.Int63n(300), src, samplePort(g.rng, spec.named, pool), false)
			}
		}
	}
}

// churn emits independent botnet members with day-scale active windows.
// Half the population is up the whole month (so the class is well
// represented on the last day); the rest come and go.
func (g *gen) churn(spec groupSpec, members []netutil.IPv4, pool []trace.PortKey, perDay float64) {
	miraiCut := int(spec.miraiFrac * float64(len(members)))
	for i, src := range members {
		first, last := 0, g.cfg.Days
		if i%2 == 1 {
			first = g.rng.Intn(g.cfg.Days)
			dur := 1 + int(g.rng.ExpFloat64()*6)
			last = first + dur
			if last > g.cfg.Days {
				last = g.cfg.Days
			}
		}
		for day := first; day < last; day++ {
			pkts := g.poisson(perDay)
			if pkts == 0 && g.rng.Float64() < 0.4 {
				pkts = 1
			}
			base := g.cfg.Start + int64(day)*86400
			for p := 0; p < pkts; p++ {
				g.emit(base+g.rng.Int63n(86400), src, samplePort(g.rng, spec.named, pool), i < miraiCut)
			}
		}
	}
}
