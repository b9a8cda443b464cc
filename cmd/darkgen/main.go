// Command darkgen synthesises a darknet dataset with the paper's population
// structure: a packet trace (CSV or pcap) plus the scanner-project IP feeds
// used as ground truth.
//
// Usage:
//
//	darkgen -out trace.csv -feeds feeds/ [-days 30] [-scale 0.05] [-rate 0.1] [-seed 1] [-pcap trace.pcap]
//
// With -live, the generated events are additionally streamed into a
// darkvecd -ingest listener over the CSV line protocol, paced by -speed
// (event-seconds per wall-second: 1 = real time, 86400 = a day per second,
// 0 = unpaced firehose) — the load generator for soak and chaos testing of
// the live ingestion path:
//
//	darkgen -out '' -days 1 -live 127.0.0.1:9000 -speed 3600
//
// With -attack, an evasive scanner overlay (sybil | mimicry | jitter) is
// appended after the base trace — sized by -attackers/-attackpps/-attackdays
// — so the same invocation exercises the drift gate end to end:
//
//	darkgen -out '' -days 1 -attack sybil -attackers 200 -live 127.0.0.1:9000
//
// With -vantage (repeatable, name=cidr[@addr]), the darknet is viewed as
// several telescopes: events are tagged with the vantage whose block their
// destination falls in, and destinations no vantage monitors are dropped.
// Each vantage develops its own personality — the sub-block it watches sees
// a distinct slice of every scanner's sweep. A spec with @addr streams that
// vantage's view to its own darkvecd -ingest listener, one connection per
// vantage, which is the load generator for federation chaos drills:
//
//	darkgen -out '' -days 1 \
//	    -vantage north=198.18.0.0/26@127.0.0.1:9001 \
//	    -vantage south=198.18.0.64/26@127.0.0.1:9002
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// vantageSpec is one -vantage definition: the telescope geometry plus an
// optional live streaming target for that vantage's view.
type vantageSpec struct {
	v    darksim.Vantage
	addr string // "" when this vantage only tags, never streams
}

// vantageSpecs collects repeatable -vantage name=cidr[@addr] flags.
type vantageSpecs []vantageSpec

func (s *vantageSpecs) String() string {
	var parts []string
	for _, spec := range *s {
		p := spec.v.Name + "=" + spec.v.Block.String()
		if spec.addr != "" {
			p += "@" + spec.addr
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ",")
}

func (s *vantageSpecs) Set(arg string) error {
	name, rest, ok := strings.Cut(arg, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=cidr[@addr], got %q", arg)
	}
	cidr, addr, _ := strings.Cut(rest, "@")
	block, err := netutil.ParseSubnet(cidr)
	if err != nil {
		return fmt.Errorf("vantage %s: %v", name, err)
	}
	for _, prev := range *s {
		if prev.v.Name == name {
			return fmt.Errorf("duplicate vantage %q", name)
		}
	}
	*s = append(*s, vantageSpec{v: darksim.Vantage{Name: name, Block: block}, addr: addr})
	return nil
}

func main() {
	var (
		out      = flag.String("out", "trace.csv", "CSV trace output path ('' to skip)")
		pcapOut  = flag.String("pcap", "", "optional pcap output path")
		feedsDir = flag.String("feeds", "", "directory for per-class IP feed files ('' to skip)")
		days     = flag.Int("days", 30, "trace length in days")
		scale    = flag.Float64("scale", 0.05, "population scale vs the paper's darknet")
		rate     = flag.Float64("rate", 0.10, "per-sender packet rate scale")
		seed     = flag.Uint64("seed", 1, "generator seed")
		live     = flag.String("live", "", "stream events to this darkvecd -ingest address (host:port or unix:/path)")
		speed    = flag.Float64("speed", 0, "live pacing in event-seconds per wall-second (0 = firehose)")

		vantages vantageSpecs

		attack    = flag.String("attack", "", "append an evasive overlay: sybil | mimicry | jitter")
		attackers = flag.Int("attackers", 200, "attacking source count")
		attackPPS = flag.Int("attackpps", 12, "packets per attacker per day")
		attackDay = flag.Int("attackdays", 1, "attack duration in days (starts where the base trace ends)")
		mimic     = flag.String("attackmimic", "", "mimicry: ground-truth class whose port mix to copy")
	)
	flag.Var(&vantages, "vantage", "vantage telescope as name=cidr[@addr] (repeatable; @addr streams that view live)")
	flag.Parse()
	if err := run(options{
		out: *out, pcapOut: *pcapOut, feedsDir: *feedsDir,
		days: *days, scale: *scale, rate: *rate, seed: *seed,
		live: *live, speed: *speed, vantages: vantages,
		attack: *attack, attackers: *attackers, attackPPS: *attackPPS,
		attackDays: *attackDay, mimic: *mimic,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "darkgen:", err)
		os.Exit(1)
	}
}

type options struct {
	out, pcapOut, feedsDir string
	days                   int
	scale, rate            float64
	seed                   uint64
	live                   string
	speed                  float64
	vantages               []vantageSpec

	attack     string
	attackers  int
	attackPPS  int
	attackDays int
	mimic      string
}

func run(o options) error {
	res := darksim.Generate(darksim.Config{
		Seed: o.seed, Days: o.days, Scale: o.scale, Rate: o.rate,
	})
	fmt.Printf("generated %d events from %d sources over %d days\n",
		res.Trace.Len(), len(res.Trace.SenderCounts()), o.days)

	tr := res.Trace
	if o.attack != "" {
		// The overlay starts where the base trace ends, so a live window's
		// age horizon never evicts it before a retrain sees it.
		end := res.Config.Start + int64(o.days)*86400
		atk, err := darksim.Attack(darksim.AttackConfig{
			Kind:             darksim.AttackKind(o.attack),
			Seed:             o.seed,
			Start:            end,
			Days:             o.attackDays,
			Senders:          o.attackers,
			PacketsPerSender: o.attackPPS,
			MimicClass:       o.mimic,
		})
		if err != nil {
			return err
		}
		tr = trace.Merge(tr, atk.Trace)
		fmt.Printf("appended %s attack: %d events from %d attackers\n",
			o.attack, atk.Trace.Len(), len(atk.Attackers))
	}

	if len(o.vantages) > 0 {
		blocks := make([]darksim.Vantage, len(o.vantages))
		for i, spec := range o.vantages {
			blocks[i] = spec.v
		}
		before := tr.Len()
		tagged, err := darksim.TagVantages(tr, blocks)
		if err != nil {
			return err
		}
		tr = tagged
		fmt.Printf("tagged %d of %d events across %d vantages (%d aimed at unmonitored space)\n",
			tr.Len(), before, len(blocks), before-tr.Len())
	}

	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := tr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.out)
	}
	if o.pcapOut != "" {
		f, err := os.Create(o.pcapOut)
		if err != nil {
			return err
		}
		if err := tr.WritePCAP(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.pcapOut)
	}
	if o.feedsDir != "" {
		if err := os.MkdirAll(o.feedsDir, 0o755); err != nil {
			return err
		}
		for class, ips := range res.Feeds {
			path := filepath.Join(o.feedsDir, class+".txt")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := labels.WriteFeed(f, ips); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d senders)\n", path, len(ips))
		}
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if o.live != "" {
		if err := runLive(o.live, tr, o.speed, logf); err != nil {
			return err
		}
	}

	// Per-vantage live feeds: each @addr vantage streams its own view over
	// its own connection, concurrently — one failing feed does not stop its
	// peers, but the run reports every failure.
	var targets []vantageSpec
	for _, spec := range o.vantages {
		if spec.addr != "" {
			targets = append(targets, spec)
		}
	}
	if len(targets) > 0 {
		blocks := make([]darksim.Vantage, len(o.vantages))
		for i, spec := range o.vantages {
			blocks[i] = spec.v
		}
		views, err := darksim.SplitVantages(tr, blocks)
		if err != nil {
			return err
		}
		errs := make([]error, len(targets))
		var wg sync.WaitGroup
		for i, spec := range targets {
			wg.Add(1)
			go func(i int, spec vantageSpec) {
				defer wg.Done()
				view := views[spec.v.Name]
				if view.Len() == 0 {
					logf("vantage %s: nothing to stream", spec.v.Name)
					return
				}
				if err := runLive(spec.addr, view, o.speed, func(format string, args ...any) {
					logf("vantage "+spec.v.Name+": "+format, args...)
				}); err != nil {
					errs[i] = fmt.Errorf("vantage %s: %w", spec.v.Name, err)
				}
			}(i, spec)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}
