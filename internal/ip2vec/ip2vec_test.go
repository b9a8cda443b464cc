package ip2vec

import (
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/trace"
)

func ip(s string) netutil.IPv4 { return netutil.MustParseIPv4(s) }

func mk(ts int64, src, dst string, port uint16) trace.Event {
	return trace.Event{
		Ts: ts, Src: ip(src), Dst: ip(dst),
		Port: port, Proto: packet.IPProtocolTCP,
	}
}

func TestPairsConstruction(t *testing.T) {
	tr := trace.New([]trace.Event{mk(0, "1.1.1.1", "198.18.0.9", 23)})
	enc := pairs(tr, nil)
	if len(enc.Sequences) != 5 {
		t.Fatalf("pairs = %d", len(enc.Sequences))
	}
	want := [][2]string{
		{"s:1.1.1.1", "d:198.18.0.9"},
		{"s:1.1.1.1", "p:23/tcp"},
		{"s:1.1.1.1", "t:tcp"},
		{"p:23/tcp", "d:198.18.0.9"},
		{"t:tcp", "d:198.18.0.9"},
	}
	for i, p := range enc.Sequences {
		if len(p) != 2 || enc.Words[p[0]] != want[i][0] || enc.Words[p[1]] != want[i][1] {
			t.Fatalf("pair %d = %v, want %v", i, p, want[i])
		}
	}
	// Every word once in the table, counted by occurrence.
	wantCounts := map[string]int64{"s:1.1.1.1": 3, "d:198.18.0.9": 3, "p:23/tcp": 2, "t:tcp": 2}
	if len(enc.Words) != len(wantCounts) {
		t.Fatalf("words = %v", enc.Words)
	}
	for id, w := range enc.Words {
		if enc.Counts[id] != wantCounts[w] {
			t.Fatalf("count(%s) = %d, want %d", w, enc.Counts[id], wantCounts[w])
		}
	}
}

func TestPairCount(t *testing.T) {
	tr := trace.New([]trace.Event{
		mk(0, "1.1.1.1", "198.18.0.9", 23),
		mk(1, "2.2.2.2", "198.18.0.9", 80),
	})
	if got := PairCount(tr, nil); got != 10 {
		t.Fatalf("count = %d", got)
	}
	active := map[netutil.IPv4]bool{ip("1.1.1.1"): true}
	if got := PairCount(tr, active); got != 5 {
		t.Fatalf("filtered count = %d", got)
	}
}

func TestTrainSeparatesByBehaviour(t *testing.T) {
	var events []trace.Event
	ts := int64(0)
	add := func(src string, port uint16, n int) {
		for i := 0; i < n; i++ {
			events = append(events, mk(ts, src, "198.18.0.9", port))
			ts++
		}
	}
	// Telnet group vs web group.
	add("1.0.0.1", 23, 30)
	add("1.0.0.2", 23, 30)
	add("2.0.0.1", 443, 30)
	add("2.0.0.2", 443, 30)
	tr := trace.New(events)
	space, err := Train(tr, nil, Config{Dim: 16, Epochs: 25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if space.Len() != 4 {
		t.Fatalf("space = %d senders, words=%v", space.Len(), space.Words)
	}
	i1, _ := space.Index("1.0.0.1")
	i2, _ := space.Index("1.0.0.2")
	j1, _ := space.Index("2.0.0.1")
	if space.Cosine(i1, i2) <= space.Cosine(i1, j1) {
		t.Fatalf("within %.3f must beat across %.3f", space.Cosine(i1, i2), space.Cosine(i1, j1))
	}
}
