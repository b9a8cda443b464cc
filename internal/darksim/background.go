package darksim

import (
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// Background population sizes at Scale = 1, chosen so the aggregate matches
// the paper's Table 1 / Figure 2 shape: ~100k senders active over 30 days,
// ~22k of them present in the last day, and over half a million total
// sources once one-shot backscatter is included.
const (
	bgAlwaysOnAtScale1 = 12100  // uncoordinated actives guaranteed on the last day
	bgChurnAtScale1    = 70000  // uncoordinated actives with day-scale lifetimes
	backscatterAtScale = 420000 // sub-threshold senders (1–9 packets)
)

// globalPorts is the background interest distribution. Together with the
// SMB- and ADB-heavy profiles below it reproduces the paper's top-port
// ranking (5555, 445 and 23 dominate, Table 1 / Fig 1a).
var globalPorts = []weightedPort{
	{tcpKey(445), 0.16}, {tcpKey(23), 0.07}, {tcpKey(1433), 0.06},
	{udpKey(123), 0.05}, {tcpKey(6379), 0.05}, {tcpKey(8080), 0.05},
	{tcpKey(80), 0.05}, {tcpKey(443), 0.04}, {tcpKey(22), 0.04},
	{tcpKey(3389), 0.04}, {udpKey(53), 0.03}, {tcpKey(81), 0.03},
	{tcpKey(7547), 0.03}, {tcpKey(8443), 0.02}, {tcpKey(5060), 0.02},
	{udpKey(5060), 0.02}, {tcpKey(3306), 0.02}, {tcpKey(25), 0.02},
	{tcpKey(110), 0.01}, {udpKey(161), 0.01}, {icmpKey(), 0.02},
}

// bgProfile is one background sender's behaviour.
type bgProfile struct {
	ports  []weightedPort
	pool   []trace.PortKey
	perDay float64
}

// drawProfile samples a background sender profile: a heavy SMB scanner, a
// heavy ADB scanner, or a generic low-rate sender with a few pet ports.
func (g *gen) drawProfile(pool []trace.PortKey) bgProfile {
	u := g.rng.Float64()
	switch {
	case u < 0.22: // SMB-focused (the crowd behind 445/tcp's top rank)
		return bgProfile{
			ports:  []weightedPort{{tcpKey(445), 0.9}},
			pool:   pool,
			perDay: g.rate(60, 0.6),
		}
	case u < 0.30: // ADB-focused (port 5555's heavy senders)
		return bgProfile{
			ports:  []weightedPort{{tcpKey(5555), 0.85}},
			pool:   pool,
			perDay: g.rate(150, 0.6),
		}
	default:
		// Generic: 1–3 pet ports drawn from the global mix.
		n := 1 + g.rng.Intn(3)
		ports := make([]weightedPort, 0, n)
		share := 0.85 / float64(n)
		for i := 0; i < n; i++ {
			ports = append(ports, weightedPort{samplePort(g.rng, globalPorts, nil), share})
		}
		perDay := g.rate(2+g.rng.ExpFloat64()*9, 0.5)
		return bgProfile{ports: ports, pool: pool, perDay: perDay}
	}
}

// backgroundSizes returns how many always-on and churning uncoordinated
// senders background emits.
func backgroundSizes(cfg Config) (alwaysOn, churny int) {
	return cfg.scaled(bgAlwaysOnAtScale1, 20), cfg.scaled(bgChurnAtScale1, 40)
}

// backscatterSize returns how many sub-threshold senders backscatter emits.
func backscatterSize(cfg Config) int { return cfg.scaled(backscatterAtScale, 100) }

// background emits the uncoordinated active senders.
func (g *gen) background() {
	tailPool := portPool(99, 4000) // shared long-tail scatter
	alwaysOn, churny := backgroundSizes(g.cfg)

	emitDays := func(src netutil.IPv4, prof bgProfile, first, last int) {
		for day := first; day < last; day++ {
			pkts := g.poisson(prof.perDay)
			if pkts == 0 && g.rng.Float64() < 0.3 {
				pkts = 1
			}
			base := g.cfg.Start + int64(day)*86400
			for p := 0; p < pkts; p++ {
				g.emit(base+g.rng.Int63n(86400), src, samplePort(g.rng, prof.ports, prof.pool), false)
			}
		}
	}
	for i := 0; i < alwaysOn; i++ {
		src := g.allocIP(netutil.Subnet{})
		emitDays(src, g.drawProfile(tailPool), 0, g.cfg.Days)
	}
	for i := 0; i < churny; i++ {
		src := g.allocIP(netutil.Subnet{})
		first := g.rng.Intn(g.cfg.Days)
		dur := 1 + int(g.rng.ExpFloat64()*7)
		last := first + dur
		if last > g.cfg.Days {
			last = g.cfg.Days
		}
		emitDays(src, g.drawProfile(tailPool), first, last)
	}
}

// backscatter emits the sub-threshold noise: victims of spoofed-source
// attacks replying into the darknet, plus misconfigured one-shot senders.
// Roughly 36% of all sources send exactly one packet (§3.1, Fig 2a).
func (g *gen) backscatter() {
	n := backscatterSize(g.cfg)
	span := int64(g.cfg.Days) * 86400
	for i := 0; i < n; i++ {
		src := g.allocIP(netutil.Subnet{})
		pkts := 1
		if g.rng.Float64() > 0.47 { // calibrated so ~36% of ALL sources are one-shot
			pkts = 2 + g.rng.Intn(8)
		}
		start := g.cfg.Start + g.rng.Int63n(span)
		// Backscatter arrives at ephemeral destination ports (it answers a
		// spoofed source port), bursty in time.
		key := trace.PortKey{Port: uint16(1024 + g.rng.Intn(64512)), Proto: tcpKey(0).Proto}
		for p := 0; p < pkts; p++ {
			g.emit(start+g.rng.Int63n(3600), src, key, false)
		}
	}
}
