package labels

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

func ip(s string) netutil.IPv4 { return netutil.MustParseIPv4(s) }

func mk(ts int64, src string, port uint16, mirai bool) trace.Event {
	return trace.Event{
		Ts: ts, Src: ip(src), Dst: ip("198.18.0.1"),
		Port: port, Proto: packet.IPProtocolTCP, Mirai: mirai,
	}
}

func fixture() (*trace.Trace, map[string][]netutil.IPv4) {
	tr := trace.New([]trace.Event{
		mk(0, "1.1.1.1", 23, true),   // mirai by fingerprint
		mk(1, "1.1.1.1", 23, false),  // mixed traffic, still mirai
		mk(2, "2.2.2.2", 443, false), // censys by feed
		mk(3, "3.3.3.3", 22, false),  // unlabeled
		mk(4, "4.4.4.4", 23, true),   // mirai AND in a feed → fingerprint wins
		mk(5, "2.2.2.2", 80, false),
	})
	feeds := map[string][]netutil.IPv4{
		"censys": {ip("2.2.2.2")},
		"shodan": {ip("4.4.4.4")},
	}
	return tr, feeds
}

func TestDetectMirai(t *testing.T) {
	tr, _ := fixture()
	m := DetectMirai(tr)
	if len(m) != 2 || !m[ip("1.1.1.1")] || !m[ip("4.4.4.4")] {
		t.Fatalf("mirai = %v", m)
	}
}

func TestBuildPrecedence(t *testing.T) {
	tr, feeds := fixture()
	s := Build(tr, feeds)
	if got := s.Class(ip("1.1.1.1")); got != MiraiClass {
		t.Fatalf("1.1.1.1 = %s", got)
	}
	if got := s.Class(ip("2.2.2.2")); got != "censys" {
		t.Fatalf("2.2.2.2 = %s", got)
	}
	if got := s.Class(ip("3.3.3.3")); got != Unknown {
		t.Fatalf("3.3.3.3 = %s", got)
	}
	// Fingerprint outranks the feed.
	if got := s.Class(ip("4.4.4.4")); got != MiraiClass {
		t.Fatalf("4.4.4.4 = %s", got)
	}
	if s.Labeled() != 3 {
		t.Fatalf("labeled = %d", s.Labeled())
	}
}

func TestClasses(t *testing.T) {
	tr, feeds := fixture()
	s := Build(tr, feeds)
	got := s.Classes()
	want := []string{"censys", MiraiClass}
	if len(got) != len(want) {
		t.Fatalf("classes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("classes = %v, want %v", got, want)
		}
	}
}

func TestTable2(t *testing.T) {
	tr, feeds := fixture()
	s := Build(tr, feeds)
	rows := Table2(tr, s, nil)
	// Expected classes: mirai-like (1.1.1.1 and 4.4.4.4 — the shodan feed
	// entry is overridden by its fingerprint), censys (2.2.2.2), unknown
	// (3.3.3.3).
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[len(rows)-1].Label != Unknown {
		t.Fatal("unknown must be the last row")
	}
	if rows[0].Label != MiraiClass || rows[0].Senders != 2 || rows[0].Packets != 3 {
		t.Fatalf("row0 = %+v", rows[0])
	}
	// Top ports of mirai: 23/tcp with 100% share.
	if rows[0].TopPorts[0].Key.Port != 23 || rows[0].TopShare != 1 {
		t.Fatalf("row0 ports = %+v", rows[0].TopPorts)
	}
	censys := rows[1]
	if censys.Label != "censys" || censys.Ports != 2 || censys.TopShare != 1 {
		t.Fatalf("censys row = %+v", censys)
	}
}

func TestTable2ActiveFilter(t *testing.T) {
	tr, feeds := fixture()
	s := Build(tr, feeds)
	active := map[netutil.IPv4]bool{ip("1.1.1.1"): true}
	rows := Table2(tr, s, active)
	if len(rows) != 1 || rows[0].Label != MiraiClass || rows[0].Senders != 1 {
		t.Fatalf("filtered rows = %+v", rows)
	}
}

func TestReadFeedDir(t *testing.T) {
	if feeds, err := ReadFeedDir(""); err != nil || len(feeds) != 0 {
		t.Fatalf("no directory configured = %v, %v; want an empty map", feeds, err)
	}
	if _, err := ReadFeedDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing directory must fail")
	}
	dir := t.TempDir()
	for name, body := range map[string]string{
		"README.md":  "x",
		"censys.txt": "1.2.3.4\n# comment\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "nested.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	feeds, err := ReadFeedDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != 1 || len(feeds["censys"]) != 1 || feeds["censys"][0] != ip("1.2.3.4") {
		t.Fatalf("feeds = %v", feeds)
	}
	if err := os.WriteFile(filepath.Join(dir, "shodan.txt"), []byte("not-an-ip\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFeedDir(dir); err == nil || !strings.Contains(err.Error(), "shodan.txt") {
		t.Fatalf("malformed feed error = %v, want the file named", err)
	}
}
