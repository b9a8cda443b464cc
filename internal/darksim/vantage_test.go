package darksim

import (
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/trace"
)

func TestCarveDarknet(t *testing.T) {
	block := netutil.MustParseSubnet("198.18.0.0/24")
	vs, err := CarveDarknet(block, "a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	want := []Vantage{
		{Name: "a", Block: netutil.MustParseSubnet("198.18.0.0/26")},
		{Name: "b", Block: netutil.MustParseSubnet("198.18.0.64/26")},
		{Name: "c", Block: netutil.MustParseSubnet("198.18.0.128/26")},
		{Name: "d", Block: netutil.MustParseSubnet("198.18.0.192/26")},
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("carve[%d] = %+v, want %+v", i, vs[i], want[i])
		}
	}

	// The carve tiles the block: every address lands in exactly one vantage.
	for i := uint64(0); i < block.Size(); i++ {
		addr := block.Addr(i)
		owners := 0
		for _, v := range vs {
			if v.Block.Contains(addr) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("%s owned by %d vantages", addr, owners)
		}
	}

	if _, err := CarveDarknet(block, "a", "b", "c"); err == nil {
		t.Fatal("3 vantages (not a power of two) must fail")
	}
	if _, err := CarveDarknet(block); err == nil {
		t.Fatal("0 vantages must fail")
	}
	if _, err := CarveDarknet(netutil.MustParseSubnet("10.0.0.0/32"), "a", "b"); err == nil {
		t.Fatal("carving a /32 in two must fail")
	}
}

func vantageFixture() (*trace.Trace, []Vantage) {
	mk := func(s string) netutil.IPv4 { return netutil.MustParseIPv4(s) }
	tr := trace.New([]trace.Event{
		{Ts: 1, Src: mk("1.1.1.1"), Dst: mk("198.18.0.10")},  // north
		{Ts: 2, Src: mk("2.2.2.2"), Dst: mk("198.18.0.200")}, // south
		{Ts: 3, Src: mk("1.1.1.1"), Dst: mk("198.18.0.130")}, // south
		{Ts: 4, Src: mk("3.3.3.3"), Dst: mk("10.0.0.1")},     // unmonitored
		{Ts: 5, Src: mk("4.4.4.4"), Dst: mk("198.18.0.99")},  // north
	})
	vs := []Vantage{
		{Name: "north", Block: netutil.MustParseSubnet("198.18.0.0/25")},
		{Name: "south", Block: netutil.MustParseSubnet("198.18.0.128/25")},
	}
	return tr, vs
}

func TestTagVantages(t *testing.T) {
	tr, vs := vantageFixture()
	tagged, err := TagVantages(tr, vs)
	if err != nil {
		t.Fatal(err)
	}
	if tagged.Len() != 4 {
		t.Fatalf("tagged %d events, want 4 (unmonitored dst dropped)", tagged.Len())
	}
	wantTags := []string{"north", "south", "south", "north"}
	wantTs := []int64{1, 2, 3, 5}
	for i, e := range tagged.Events {
		if e.Vantage.String() != wantTags[i] || e.Ts != wantTs[i] {
			t.Fatalf("tagged[%d] = ts %d vantage %q, want ts %d vantage %q",
				i, e.Ts, e.Vantage, wantTs[i], wantTags[i])
		}
	}
	// The input trace is untouched.
	for _, e := range tr.Events {
		if e.Vantage != 0 {
			t.Fatalf("input trace mutated: event ts %d tagged %q", e.Ts, e.Vantage)
		}
	}
}

func TestSplitVantages(t *testing.T) {
	tr, vs := vantageFixture()
	views, err := SplitVantages(tr, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("split into %d views, want 2", len(views))
	}
	north, south := views["north"], views["south"]
	if north.Len() != 2 || south.Len() != 2 {
		t.Fatalf("north %d, south %d events; want 2 and 2", north.Len(), south.Len())
	}
	for _, e := range north.Events {
		if e.Vantage.String() != "north" {
			t.Fatalf("north view holds %q event", e.Vantage)
		}
	}
	if north.Events[0].Ts != 1 || north.Events[1].Ts != 5 {
		t.Fatalf("north order: %d, %d", north.Events[0].Ts, north.Events[1].Ts)
	}

	// An empty vantage is still present — a telescope that saw nothing is a
	// valid (and observable) state, not a missing key.
	vs = append(vs, Vantage{Name: "west", Block: netutil.MustParseSubnet("192.0.2.0/24")})
	tr2, _ := vantageFixture()
	if views, err = SplitVantages(tr2, vs); err != nil {
		t.Fatal(err)
	}
	west, ok := views["west"]
	if !ok || west.Len() != 0 {
		t.Fatalf("empty vantage missing from split: %v", views)
	}
}

// TestSplitVantagesMatchesTag: split views, interleaved back by timestamp,
// are exactly the tagged trace — the federated feeds carry the same
// observations as the single-aggregate view, just sharded.
func TestSplitVantagesMatchesTag(t *testing.T) {
	out := Generate(Config{Seed: 11, Days: 1, Scale: 0.005, Rate: 0.05})
	vs, err := CarveDarknet(netutil.MustParseSubnet("198.18.0.0/24"), "a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := TagVantages(out.Trace, vs)
	if err != nil {
		t.Fatal(err)
	}
	views, err := SplitVantages(out.Trace, vs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, view := range views {
		total += view.Len()
	}
	if total != tagged.Len() {
		t.Fatalf("split total %d != tagged %d", total, tagged.Len())
	}
	if tagged.Len() != out.Trace.Len() {
		t.Fatalf("full /24 carve dropped events: %d of %d", tagged.Len(), out.Trace.Len())
	}
}
