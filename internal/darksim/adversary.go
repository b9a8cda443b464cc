package darksim

import (
	"fmt"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// AttackKind selects an evasive scanner personality — the adversarial
// behaviours of Rust-Nguyen & Stamp that a darknet classifier must be
// measured against.
type AttackKind string

const (
	// AttackSybil splits one logical scanner's workload across many fresh
	// source addresses, each kept just above the ≥10-packet active-sender
	// filter. The flood of coordinated never-seen senders pollutes the
	// vocabulary and forms an emergent cluster in the next retrain.
	AttackSybil AttackKind = "sybil"
	// AttackMimicry copies a benign scan project's port mix (named
	// heavy-hitters plus its long-tail pool) from fresh addresses, aiming
	// to be classified as that project by the k-NN stage.
	AttackMimicry AttackKind = "mimicry"
	// AttackJitter runs a coordinated scanner whose members each apply an
	// independent clock offset, breaking the ΔT co-occurrence windows the
	// embedding learns from so the group never coheres into a cluster.
	AttackJitter AttackKind = "jitter"
)

// AttackKinds lists every personality, in presentation order.
func AttackKinds() []AttackKind {
	return []AttackKind{AttackSybil, AttackMimicry, AttackJitter}
}

// AttackConfig sizes one adversarial overlay. The zero value of every
// field picks a sensible default; Kind is required.
type AttackConfig struct {
	Kind AttackKind
	Seed uint64 // PRNG seed; 0 means 1
	// Start is the Unix time of the attack's first day. 0 means the
	// darksim default trace start; when overlaying a live window, point it
	// at (or after) the end of the base trace so age-based eviction does
	// not silently discard the attack.
	Start int64
	Days  int // attack duration in days; 0 means 1
	// Senders is the attacking source count; 0 means 200.
	Senders int
	// PacketsPerSender is each source's daily budget; 0 means 12 — just
	// above the paper's ≥10-packet active filter, the cheapest admission.
	PacketsPerSender int
	// Darknet is the monitored block; zero means the darksim default.
	Darknet netutil.Subnet
	// MimicClass (AttackMimicry) names the GT class whose port mix to
	// copy; "" means ClassCensys.
	MimicClass string
	// JitterMax (AttackJitter) bounds each member's clock offset in
	// seconds; 0 means 5400 (±1.5h, enough to straddle the 1h ΔT window).
	JitterMax int64
}

func (c AttackConfig) withDefaults() AttackConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Days == 0 {
		c.Days = 1
	}
	if c.Senders == 0 {
		c.Senders = 200
	}
	if c.PacketsPerSender == 0 {
		c.PacketsPerSender = 12
	}
	if c.MimicClass == "" {
		c.MimicClass = ClassCensys
	}
	if c.JitterMax == 0 {
		c.JitterMax = 5400
	}
	return c
}

// AttackOutput is one synthesised adversarial overlay: the attack events
// alone (merge with trace.Merge, or stream after a base trace), plus the
// attacker population for evaluation.
type AttackOutput struct {
	Trace     *trace.Trace
	Attackers []netutil.IPv4
	Config    AttackConfig
}

// Attack synthesises an adversarial overlay. The same config always
// yields the same bytes.
func Attack(cfg AttackConfig) (*AttackOutput, error) {
	cfg = cfg.withDefaults()
	base := Config{
		Seed:    cfg.Seed,
		Days:    cfg.Days,
		Start:   cfg.Start,
		Darknet: cfg.Darknet,
	}.withDefaults()
	cfg.Start, cfg.Darknet = base.Start, base.Darknet
	g := newGen(base, cfg.Seed*0x6c62272e+41, cfg.Senders)
	attackers := make([]netutil.IPv4, cfg.Senders)
	for i := range attackers {
		// Global addresses: sybils and mimics spread across the address
		// space precisely so no subnet heuristic groups them.
		attackers[i] = g.allocIP(netutil.Subnet{})
	}
	switch cfg.Kind {
	case AttackSybil:
		g.sybil(cfg, attackers)
	case AttackMimicry:
		if err := g.mimicry(cfg, attackers); err != nil {
			return nil, err
		}
	case AttackJitter:
		g.jitter(cfg, attackers)
	default:
		return nil, fmt.Errorf("darksim: unknown attack kind %q", cfg.Kind)
	}
	return &AttackOutput{
		Trace:     g.trace(),
		Attackers: attackers,
		Config:    cfg,
	}, nil
}

// sybilPorts is the split scanner's tight Telnet-flavoured target set —
// one logical workload, many identities.
func sybilPorts() []weightedPort {
	return []weightedPort{{tcpKey(23), 0.70}, {tcpKey(2323), 0.20}, {tcpKey(5555), 0.10}}
}

// emitRounds schedules each attacker's exact daily packet budget over
// synchronised rounds. offset, when non-nil, shifts each member's clock by
// its own amount (the jitter personality); width is the intra-round spread
// in seconds.
func (g *gen) emitRounds(cfg AttackConfig, attackers []netutil.IPv4, named []weightedPort, pool []trace.PortKey, rounds int, width int64, offset []int64) {
	for day := 0; day < cfg.Days; day++ {
		hours := g.rng.Perm(24)[:rounds]
		for i, src := range attackers {
			var off int64
			if offset != nil {
				off = offset[i]
			}
			for p := 0; p < cfg.PacketsPerSender; p++ {
				base := cfg.Start + int64(day)*86400 + int64(hours[p%rounds])*3600
				ts := base + off + g.rng.Int63n(width)
				// Clamp into the attack window so jitter never silently
				// sheds budget and drops a sybil below the active filter.
				if ts < cfg.Start {
					ts = cfg.Start + g.rng.Int63n(width)
				}
				if end := cfg.Start + int64(cfg.Days)*86400; ts >= end {
					ts = end - 1 - g.rng.Int63n(width)
				}
				g.emit(ts, src, samplePort(g.rng, named, pool), false)
			}
		}
	}
}

// sybil: synchronised rounds, tight windows, tight port set — maximal
// co-occurrence so the cohort embeds as one new cluster.
func (g *gen) sybil(cfg AttackConfig, attackers []netutil.IPv4) {
	rounds := 4
	if cfg.PacketsPerSender < rounds {
		rounds = cfg.PacketsPerSender
	}
	g.emitRounds(cfg, attackers, sybilPorts(), nil, rounds, 600, nil)
}

// mimicry: the target class's exact port mix, fired on the attacker's own
// budget and schedule.
func (g *gen) mimicry(cfg AttackConfig, attackers []netutil.IPv4) error {
	var spec groupSpec
	found := false
	for _, s := range groupSpecs() {
		if s.gtClass == cfg.MimicClass {
			spec, found = s, true
			break
		}
	}
	if !found {
		return fmt.Errorf("darksim: no ground-truth class %q to mimic", cfg.MimicClass)
	}
	rounds := spec.rounds
	if rounds <= 0 {
		rounds = 4
	}
	if cfg.PacketsPerSender < rounds {
		rounds = cfg.PacketsPerSender
	}
	pool := portPool(spec.poolSeed, spec.poolPorts)
	g.emitRounds(cfg, attackers, spec.named, pool, rounds, 3600, nil)
	return nil
}

// jitter: the sybil workload with per-member clock offsets that straddle
// the ΔT windows, so co-occurrence never accumulates.
func (g *gen) jitter(cfg AttackConfig, attackers []netutil.IPv4) {
	offset := make([]int64, len(attackers))
	for i := range offset {
		offset[i] = g.rng.Int63n(2*cfg.JitterMax+1) - cfg.JitterMax
	}
	rounds := 4
	if cfg.PacketsPerSender < rounds {
		rounds = cfg.PacketsPerSender
	}
	g.emitRounds(cfg, attackers, sybilPorts(), nil, rounds, 600, offset)
}
