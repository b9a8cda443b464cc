package darksim

import (
	"reflect"
	"sort"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

// tiny returns a fast configuration for tests.
func tiny() Config {
	return Config{Seed: 7, Days: 8, Scale: 0.01, Rate: 0.05}
}

func TestDeterminism(t *testing.T) {
	a := Generate(tiny())
	b := Generate(tiny())
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	if !reflect.DeepEqual(a.Trace.Events[:100], b.Trace.Events[:100]) {
		t.Fatal("same config must generate identical traces")
	}
	if !reflect.DeepEqual(a.Feeds, b.Feeds) {
		t.Fatal("feeds must be deterministic")
	}
}

func TestSeedChangesOutput(t *testing.T) {
	cfg := tiny()
	a := Generate(cfg)
	cfg.Seed = 8
	b := Generate(cfg)
	if a.Trace.Len() == b.Trace.Len() &&
		reflect.DeepEqual(a.Trace.Events[:50], b.Trace.Events[:50]) {
		t.Fatal("different seeds should differ")
	}
}

func TestEventsInsideHorizonAndDarknet(t *testing.T) {
	cfg := tiny()
	out := Generate(cfg)
	first, last := out.Trace.Span()
	start := out.Config.Start
	end := start + int64(out.Config.Days)*86400
	if first < start || last >= end {
		t.Fatalf("span %d..%d outside horizon %d..%d", first, last, start, end)
	}
	darknet := out.Config.Darknet
	for _, e := range out.Trace.Events[:min(5000, out.Trace.Len())] {
		if !darknet.Contains(e.Dst) {
			t.Fatalf("destination %v outside darknet %v", e.Dst, darknet)
		}
		if darknet.Contains(e.Src) {
			t.Fatalf("source %v inside the darknet", e.Src)
		}
	}
}

func TestFeedsCoverGTClasses(t *testing.T) {
	out := Generate(tiny())
	for _, class := range []string{
		ClassCensys, ClassStretchoid, ClassInternetCensus, ClassBinaryEdge,
		ClassSharashka, ClassIpip, ClassShodan, ClassEnginUmich,
	} {
		if len(out.Feeds[class]) == 0 {
			t.Errorf("feed %s empty", class)
		}
	}
	if _, ok := out.Feeds[ClassMirai]; ok {
		t.Error("mirai must not be exported as a feed (it is fingerprint-derived)")
	}
}

func TestFeedsDisjoint(t *testing.T) {
	out := Generate(tiny())
	seen := map[netutil.IPv4]string{}
	for class, ips := range out.Feeds {
		for _, ip := range ips {
			if prev, dup := seen[ip]; dup {
				t.Fatalf("ip %v in feeds %s and %s", ip, prev, class)
			}
			seen[ip] = class
		}
	}
}

func TestGroupsRecorded(t *testing.T) {
	out := Generate(tiny())
	for _, name := range []string{
		"mirai-core", "unknown5-mirai", "censys", "engin-umich",
		"shadowserver-c25", "shadowserver-c29", "shadowserver-c37",
		"unknown1-netbios", "unknown2-smtp", "unknown3-smb", "unknown4-adb",
		"unknown6-ssh", "unknown7-horizontal", "unknown8-horizontal",
	} {
		if len(out.Groups[name]) == 0 {
			t.Errorf("group %s missing", name)
		}
	}
	names := out.SortedGroupNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("group names must be sorted")
		}
	}
}

func TestMiraiFingerprintPlacement(t *testing.T) {
	out := Generate(tiny())
	fingerprinted := map[netutil.IPv4]bool{}
	for _, e := range out.Trace.Events {
		if e.Mirai {
			if e.Proto != packet.IPProtocolTCP {
				t.Fatal("fingerprint only applies to TCP")
			}
			fingerprinted[e.Src] = true
		}
	}
	if len(fingerprinted) == 0 {
		t.Fatal("no fingerprinted senders")
	}
	// Every fingerprinted sender must belong to a Mirai group.
	miraiMembers := map[netutil.IPv4]bool{}
	for _, ip := range out.Groups["mirai-core"] {
		miraiMembers[ip] = true
	}
	for _, ip := range out.Groups["unknown5-mirai"] {
		miraiMembers[ip] = true
	}
	for ip := range fingerprinted {
		if !miraiMembers[ip] {
			t.Fatalf("fingerprinted sender %v not in a mirai group", ip)
		}
	}
	// unknown5 must be only partially fingerprinted (the 71% design).
	u5fp := 0
	for _, ip := range out.Groups["unknown5-mirai"] {
		if fingerprinted[ip] {
			u5fp++
		}
	}
	n := len(out.Groups["unknown5-mirai"])
	if u5fp == 0 || u5fp == n {
		t.Fatalf("unknown5 fingerprint split = %d/%d, want partial", u5fp, n)
	}
}

func TestGTSendersAreActive(t *testing.T) {
	out := Generate(tiny())
	counts := out.Trace.SenderCounts()
	for class, ips := range out.Feeds {
		short := 0
		for _, ip := range ips {
			if counts[ip] < 10 {
				short++
			}
		}
		// Allow rare unlucky senders, but the class must be overwhelmingly
		// active (the experiments rely on it).
		if float64(short) > 0.2*float64(len(ips)) {
			t.Errorf("class %s: %d/%d senders below the active threshold", class, short, len(ips))
		}
	}
}

func TestGTSendersPresentOnLastDay(t *testing.T) {
	out := Generate(tiny())
	last := out.Trace.LastDays(1)
	present := map[netutil.IPv4]bool{}
	for _, ip := range last.Senders() {
		present[ip] = true
	}
	for class, ips := range out.Feeds {
		miss := 0
		for _, ip := range ips {
			if !present[ip] {
				miss++
			}
		}
		if float64(miss) > 0.3*float64(len(ips)) {
			t.Errorf("class %s: %d/%d senders absent from the last day", class, miss, len(ips))
		}
	}
}

func TestTopPortShape(t *testing.T) {
	out := Generate(Config{Seed: 3, Days: 10, Scale: 0.02, Rate: 0.05})
	top := out.Trace.TopPorts(3, packet.IPProtocolTCP)
	want := map[uint16]bool{445: true, 5555: true, 23: true}
	for _, p := range top {
		if !want[p.Key.Port] {
			t.Fatalf("top-3 TCP ports = %v, expected {445, 5555, 23}", top)
		}
	}
}

func TestBackscatterOneShotShare(t *testing.T) {
	out := Generate(Config{Seed: 3, Days: 10, Scale: 0.02, Rate: 0.05})
	counts := out.Trace.SenderCounts()
	oneShot := 0
	for _, c := range counts {
		if c == 1 {
			oneShot++
		}
	}
	frac := float64(oneShot) / float64(len(counts))
	// Paper: ~36% of senders seen exactly once.
	if frac < 0.2 || frac > 0.55 {
		t.Fatalf("one-shot sender share = %.2f, want ≈0.36", frac)
	}
}

func TestNoBackground(t *testing.T) {
	cfg := tiny()
	cfg.NoBackground = true
	out := Generate(cfg)
	senders := out.Trace.SenderCounts()
	members := 0
	for _, ips := range out.Groups {
		members += len(ips)
	}
	if len(senders) > members {
		t.Fatalf("senders %d exceed planted members %d with background off", len(senders), members)
	}
}

func TestGroundTruthMap(t *testing.T) {
	out := Generate(tiny())
	gt := out.GroundTruth()
	for class, ips := range out.Feeds {
		for _, ip := range ips {
			if gt[ip] != class {
				t.Fatalf("gt[%v] = %s, want %s", ip, gt[ip], class)
			}
		}
	}
}

func TestScaleFloors(t *testing.T) {
	out := Generate(Config{Seed: 1, Days: 3, Scale: 0.0001, Rate: 0.05})
	if len(out.Feeds[ClassEnginUmich]) < 10 {
		t.Fatalf("engin-umich floor violated: %d", len(out.Feeds[ClassEnginUmich]))
	}
	if len(out.Feeds[ClassCensys]) < 14 {
		t.Fatalf("censys floor violated: %d", len(out.Feeds[ClassCensys]))
	}
}

func TestSubnetStructure(t *testing.T) {
	out := Generate(tiny())
	// unknown1: all members in one /24.
	u1 := out.Groups["unknown1-netbios"]
	base := u1[0].Subnet(24)
	for _, ip := range u1 {
		if ip.Subnet(24) != base {
			t.Fatalf("unknown1 member %v outside %v", ip, base)
		}
	}
	// unknown3: spread over multiple /24s.
	u3 := out.Groups["unknown3-smb"]
	subnets := map[netutil.IPv4]bool{}
	for _, ip := range u3 {
		subnets[ip.Subnet(24).Base] = true
	}
	if len(subnets) < 2 {
		t.Fatalf("unknown3 must span multiple /24s, got %d", len(subnets))
	}
	// Shadowserver tiers share the 184.105.0.0/16.
	sixteen := netutil.MustParseSubnet("184.105.0.0/16")
	for _, grp := range []string{"shadowserver-c25", "shadowserver-c29", "shadowserver-c37"} {
		for _, ip := range out.Groups[grp] {
			if !sixteen.Contains(ip) {
				t.Fatalf("%s member %v outside %v", grp, ip, sixteen)
			}
		}
	}
}

func TestEventPortProfiles(t *testing.T) {
	out := Generate(tiny())
	// Engin-Umich traffic must be 53/udp only.
	engin := map[netutil.IPv4]bool{}
	for _, ip := range out.Feeds[ClassEnginUmich] {
		engin[ip] = true
	}
	for _, e := range out.Trace.Events {
		if engin[e.Src] {
			if e.Port != 53 || e.Proto != packet.IPProtocolUDP {
				t.Fatalf("engin-umich sent %v", e.Key())
			}
		}
	}
	// unknown4 must be dominated by 5555/tcp.
	u4 := map[netutil.IPv4]bool{}
	for _, ip := range out.Groups["unknown4-adb"] {
		u4[ip] = true
	}
	var adb, total int
	for _, e := range out.Trace.Events {
		if u4[e.Src] {
			total++
			if e.Port == 5555 && e.Proto == packet.IPProtocolTCP {
				adb++
			}
		}
	}
	if total == 0 || float64(adb)/float64(total) < 0.6 {
		t.Fatalf("unknown4 5555/tcp share = %d/%d", adb, total)
	}
}

// TestGenTraceMatchesStableReference holds the generator's counting pass to
// sort.SliceStable of what emit kept: timestamps in random order, many ties
// among distinct events, both ends of the span, and stamps outside it that
// emit must drop.
func TestGenTraceMatchesStableReference(t *testing.T) {
	cfg := Config{Seed: 9, Days: 2, Start: 1614556800 + 777}.withDefaults()
	g := newGen(cfg, cfg.Seed, 0)
	r := netutil.NewRand(11)
	start, horizon := cfg.Start, g.horizon()
	stamps := []int64{start, horizon - 1, start - 1, horizon, start - 86400, horizon + 3600}
	for i := 0; i < 5000; i++ {
		ts := start + r.Int63n(40)*3617 // 40 distinct seconds inside the span, ~125 events each
		if r.Intn(4) == 0 {
			ts = stamps[r.Intn(len(stamps))]
		}
		g.emit(ts, netutil.IPv4(i+1), tcpKey(uint16(i%7)), i%3 == 0)
	}
	var want []trace.Event
	for _, chunk := range g.chunks {
		want = append(want, chunk...)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Ts < want[j].Ts })
	for _, e := range want {
		if e.Ts < start || e.Ts >= horizon {
			t.Fatalf("emit kept ts %d outside [%d, %d)", e.Ts, start, horizon)
		}
	}
	if want[0].Ts != start || want[len(want)-1].Ts != horizon-1 {
		t.Fatalf("span ends not exercised: first %d last %d", want[0].Ts, want[len(want)-1].Ts)
	}
	got := g.trace()
	if !reflect.DeepEqual(got.Events, want) {
		t.Fatalf("counting pass differs from the stable reference (%d vs %d events)", got.Len(), len(want))
	}
	if g.chunks != nil {
		t.Error("trace kept the unordered events")
	}
}

func TestTable1ScaleProportions(t *testing.T) {
	// Doubling Scale must roughly double the populations.
	small := Generate(Config{Seed: 5, Days: 4, Scale: 0.02, Rate: 0.05})
	big := Generate(Config{Seed: 5, Days: 4, Scale: 0.04, Rate: 0.05})
	rs := float64(len(big.Trace.SenderCounts())) / float64(len(small.Trace.SenderCounts()))
	if rs < 1.5 || rs > 2.6 {
		t.Fatalf("sender scaling ratio = %.2f, want ≈2", rs)
	}
}
