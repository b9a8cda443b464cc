package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/embed"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

// markerPackets is how many packets a freshness marker sends: just above the
// paper's ≥10-packet active-sender filter, the cheapest admission.
const markerPackets = 12

// Address blocks darksim never allocates from (first octet ≥ 224), so
// markers and never-seen query addresses cannot collide with a real sender.
const (
	markerBase  = netutil.IPv4(240 << 24)
	outsideBase = netutil.IPv4(241 << 24)
)

// marker is a freshness probe: a never-seen address replaying the most
// recent packets of a feed-labeled sender, timestamps included, so it enters
// the corpus beside the sender it mimics. Its address is published in that
// sender's class feed, the way a scan project lists a new scanner before the
// darknet first sees it — the daemon must then classify it as that class.
type marker struct {
	ip     string
	class  string
	events []trace.Event

	due      time.Time // when its slot was due
	resolved time.Time // first 200 from /v1/classify
	got      string    // class answered then
}

// dataset is everything one run feeds the system, derived from the seed
// alone. The daemon only ever sees the files and bytes made from it.
type dataset struct {
	sim *darksim.Output
	// cut splits the final day: events before it are the daemon's -in file,
	// events from it on are the live feed. The feed stays inside one
	// calendar day, so the served "last day" space never rolls over mid-run.
	cut  int64
	seed *trace.Trace
	feed []trace.Event

	seedPath string
	feedsDir string

	// hose is the whole trace pre-formatted as protocol lines, so the
	// firehose measures the daemon and not the formatter.
	hose       []byte
	hoseEvents int

	markers []marker // planned freshness markers, in send order
	// feeds is what the operator publishes: the generator's scanner-project
	// lists plus the marker addresses under the class each one mimics.
	feeds   map[string][]netutil.IPv4
	known   []string // senders with ≥10 packets on the final day before the cut
	outside []string // addresses that appear nowhere in the data
}

// generate derives the dataset for (workload, seed) in memory.
func generate(w workload, seed uint64, markers int) (*dataset, error) {
	sim := darksim.Generate(darksim.Config{Seed: seed, Days: w.days, Scale: w.scale, Rate: w.rate})
	all := sim.Trace
	_, last := all.Span()
	dayStart := last - last%86400
	ds := &dataset{sim: sim, cut: dayStart + 12*3600}
	split := sort.Search(len(all.Events), func(i int) bool { return all.Events[i].Ts >= ds.cut })
	ds.seed = &trace.Trace{Events: all.Events[:split]}
	ds.feed = all.Events[split:]

	line := make([]byte, 0, 64)
	ds.hose = make([]byte, 0, len(all.Events)*48)
	for _, e := range all.Events {
		line = e.AppendCSV(line[:0])
		ds.hose = append(ds.hose, line...)
		ds.hose = append(ds.hose, '\n')
	}
	ds.hoseEvents = len(all.Events)

	// Per-sender packets on the final day before the cut, in time order.
	recent := map[netutil.IPv4][]trace.Event{}
	for _, e := range ds.seed.Window(dayStart, ds.cut).Events {
		recent[e.Src] = append(recent[e.Src], e)
	}
	classOf := map[netutil.IPv4]string{}
	for class, ips := range sim.Feeds {
		for _, ip := range ips {
			classOf[ip] = class
		}
	}
	senders := make([]netutil.IPv4, 0, len(recent))
	for ip := range recent {
		senders = append(senders, ip)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	var targets []netutil.IPv4
	for _, ip := range senders {
		if len(recent[ip]) >= 10 {
			ds.known = append(ds.known, ip.String())
		}
		if _, ok := classOf[ip]; ok && len(recent[ip]) >= markerPackets {
			targets = append(targets, ip)
		}
	}
	if len(ds.known) < 50 || len(targets) < 5 {
		return nil, fmt.Errorf("dataset too thin: %d known senders, %d marker targets", len(ds.known), len(targets))
	}
	order := netutil.NewRand(seed + 17).Perm(len(targets))
	for i := 0; i < markers; i++ {
		t := targets[order[i%len(order)]]
		m := marker{ip: (markerBase + netutil.IPv4(i)).String(), class: classOf[t]}
		evs := recent[t]
		for _, e := range evs[len(evs)-markerPackets:] {
			e.Src, e.Mirai = markerBase+netutil.IPv4(i), false
			m.events = append(m.events, e)
		}
		ds.markers = append(ds.markers, m)
	}
	ds.feeds = map[string][]netutil.IPv4{}
	for class, ips := range sim.Feeds {
		ds.feeds[class] = append([]netutil.IPv4(nil), ips...)
	}
	for i, m := range ds.markers {
		ds.feeds[m.class] = append(ds.feeds[m.class], markerBase+netutil.IPv4(i))
	}
	for i := 0; i < 4096; i++ {
		ds.outside = append(ds.outside, (outsideBase + netutil.IPv4(i)).String())
	}
	return ds, nil
}

// write stores the files the daemon boots from: the seed trace and one
// <class>.txt feed per ground-truth class.
func (ds *dataset) write(dir string) error {
	ds.seedPath = filepath.Join(dir, "seed.csv")
	ds.feedsDir = filepath.Join(dir, "feeds")
	if err := os.MkdirAll(ds.feedsDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(ds.seedPath)
	if err != nil {
		return err
	}
	if err := ds.seed.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for class, ips := range ds.feeds {
		ff, err := os.Create(filepath.Join(ds.feedsDir, class+".txt"))
		if err != nil {
			return err
		}
		if err := labels.WriteFeed(ff, ips); err != nil {
			ff.Close()
			return err
		}
		if err := ff.Close(); err != nil {
			return err
		}
	}
	return nil
}

// knownIn returns the known senders that are rows of space — the addresses a
// query must find. Fewer than 50 means the space is not the one expected.
func (ds *dataset) knownIn(space *embed.Space) ([]string, error) {
	var inside []string
	for _, ip := range ds.known {
		if _, ok := space.Index(ip); ok {
			inside = append(inside, ip)
		}
	}
	if len(inside) < 50 {
		return nil, fmt.Errorf("only %d of %d known senders are in the space", len(inside), len(ds.known))
	}
	return inside, nil
}
