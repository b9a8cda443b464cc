package main

import (
	"path/filepath"
	"testing"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

func TestVantageSpecFlagParsing(t *testing.T) {
	var specs vantageSpecs
	if err := specs.Set("north=198.18.0.0/26"); err != nil {
		t.Fatal(err)
	}
	if err := specs.Set("south=198.18.0.64/26@127.0.0.1:9002"); err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs", len(specs))
	}
	if specs[0].addr != "" || specs[1].addr != "127.0.0.1:9002" {
		t.Fatalf("addrs = %q, %q", specs[0].addr, specs[1].addr)
	}
	if specs[1].v.Block != netutil.MustParseSubnet("198.18.0.64/26") {
		t.Fatalf("south block = %s", specs[1].v.Block)
	}
	if got := specs.String(); got != "north=198.18.0.0/26,south=198.18.0.64/26@127.0.0.1:9002" {
		t.Fatalf("String() = %q", got)
	}

	for _, bad := range []string{
		"",                      // empty
		"north",                 // no =
		"north=",                // no cidr
		"=198.18.0.0/26",        // no name
		"north=not-a-cidr",      // bad cidr
		"north=198.18.0.128/26", // duplicate name
	} {
		if err := specs.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

// TestRunTagsVantages: a -vantage run writes a trace where every event is
// tagged with the vantage monitoring its destination, and traffic aimed at
// unmonitored space is gone.
func TestRunTagsVantages(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv")
	tagged := filepath.Join(dir, "tagged.csv")
	base := options{out: full, days: 2, scale: 0.005, rate: 0.05, seed: 3}
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	vant := base
	vant.out = tagged
	vant.vantages = []vantageSpec{
		{v: darksim.Vantage{Name: "north", Block: netutil.MustParseSubnet("198.18.0.0/26")}},
		{v: darksim.Vantage{Name: "south", Block: netutil.MustParseSubnet("198.18.0.64/26")}},
	}
	if err := run(vant); err != nil {
		t.Fatal(err)
	}

	all, view := readTrace(t, full), readTrace(t, tagged)
	if view.Len() == 0 || view.Len() >= all.Len() {
		t.Fatalf("tagged view holds %d of %d events; unmonitored space not dropped", view.Len(), all.Len())
	}
	blocks := map[string]netutil.Subnet{
		"north": vant.vantages[0].v.Block,
		"south": vant.vantages[1].v.Block,
	}
	for _, e := range view.Events {
		block, ok := blocks[e.Vantage.String()]
		if !ok {
			t.Fatalf("event tagged %q, not a configured vantage", e.Vantage)
		}
		if !block.Contains(e.Dst) {
			t.Fatalf("event for %s tagged %s, outside its block %s", e.Dst, e.Vantage, block)
		}
	}
}

// TestRunStreamsPerVantage: @addr specs stream each vantage's view to its
// own listener — correct tag, correct block, nothing cross-delivered.
func TestRunStreamsPerVantage(t *testing.T) {
	northAddr, northLines := sink(t)
	southAddr, southLines := sink(t)
	o := options{days: 1, scale: 0.005, rate: 0.05, seed: 3}
	o.vantages = []vantageSpec{
		{v: darksim.Vantage{Name: "north", Block: netutil.MustParseSubnet("198.18.0.0/25")}, addr: northAddr},
		{v: darksim.Vantage{Name: "south", Block: netutil.MustParseSubnet("198.18.0.128/25")}, addr: southAddr},
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	check := func(lines <-chan string, want string) int {
		t.Helper()
		block := netutil.MustParseSubnet(map[string]string{
			"north": "198.18.0.0/25", "south": "198.18.0.128/25",
		}[want])
		n := 0
		for line := range lines {
			e, err := trace.ParseCSVLine(line)
			if err != nil {
				t.Fatalf("unparseable line %q: %v", line, err)
			}
			if e.Vantage.String() != want || !block.Contains(e.Dst) {
				t.Fatalf("vantage %s received %q aimed at %s", want, e.Vantage, e.Dst)
			}
			n++
		}
		return n
	}
	if n := check(northLines, "north"); n == 0 {
		t.Fatal("north received nothing")
	}
	if n := check(southLines, "south"); n == 0 {
		t.Fatal("south received nothing")
	}
}

// TestRunVantageStreamFailure: a dead per-vantage target fails the run with
// the vantage named, after the healthy peer has been served.
func TestRunVantageStreamFailure(t *testing.T) {
	okAddr, okLines := sink(t)
	o := options{days: 1, scale: 0.005, rate: 0.05, seed: 3}
	o.vantages = []vantageSpec{
		{v: darksim.Vantage{Name: "north", Block: netutil.MustParseSubnet("198.18.0.0/25")}, addr: okAddr},
		{v: darksim.Vantage{Name: "south", Block: netutil.MustParseSubnet("198.18.0.128/25")}, addr: "127.0.0.1:1"},
	}
	err := run(o)
	if err == nil {
		t.Fatal("dead vantage target must fail the run")
	}
	n := 0
	for range okLines {
		n++
	}
	if n == 0 {
		t.Fatal("healthy vantage starved by its dead peer")
	}
}
