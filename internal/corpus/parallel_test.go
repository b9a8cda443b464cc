package corpus

import (
	"fmt"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/trace"
)

// tieHeavyTrace builds a trace engineered to stress the parallel merge:
// many senders share the same (service, window) cell, the same sender
// recurs across chunks, and events straddle chunk boundaries at every
// worker count. All on two ports so nearly everything collides.
func tieHeavyTrace(events int) *trace.Trace {
	evs := make([]trace.Event, 0, events)
	for i := 0; i < events; i++ {
		port := uint16(23)
		if i%3 == 0 {
			port = 22
		}
		evs = append(evs, trace.Event{
			// Mostly one window, a few spilling into the next.
			Ts:    int64(i % 4000),
			Src:   netutil.IPv4(0x0a000000 + uint32(i%97)), // 97 senders, heavy reuse
			Port:  port,
			Proto: packet.IPProtocolTCP,
		})
	}
	return trace.New(evs)
}

// TestBuildParallelMatchesSerial is the determinism contract of the issue:
// at any worker count the builder must produce a corpus identical to the
// serial one — same sequence order, same token ids, same counts, same
// interner table. Run under -race in CI.
func TestBuildParallelMatchesSerial(t *testing.T) {
	tr := tieHeavyTrace(5000)
	def := services.NewDomain()
	ref := BuildOpts(tr, def, 3600, Options{Workers: 1})
	if ref.Tokens() != 5000 {
		t.Fatalf("reference tokens = %d", ref.Tokens())
	}
	for _, workers := range []int{2, 3, 5, 8, 16, 64} {
		got := BuildOpts(tr, def, 3600, Options{Workers: workers})
		if err := equalCorpora(ref, got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestBuildParallelWithSharedInterner repeats the contract when the id
// space is pre-populated by an earlier build — the rolling-window regime.
func TestBuildParallelWithSharedInterner(t *testing.T) {
	old := tieHeavyTrace(700)
	fresh := tieHeavyTrace(3000)
	def := services.NewDomain()

	mk := func(workers int) *Corpus {
		in := NewInterner()
		BuildOpts(old, def, 3600, Options{Workers: workers, Interner: in})
		return BuildOpts(fresh, def, 3600, Options{Workers: workers, Interner: in})
	}
	ref := mk(1)
	for _, workers := range []int{2, 7, 16} {
		if err := equalCorpora(ref, mk(workers)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestBuildReusesInterner checks the retrain economics: a second build over
// the same senders interns nothing new and keeps every id stable.
func TestBuildReusesInterner(t *testing.T) {
	tr := tieHeavyTrace(1000)
	def := services.NewDomain()
	in := NewInterner()
	a := BuildOpts(tr, def, 3600, Options{Interner: in})
	n := in.Len()
	if n == 0 {
		t.Fatal("no senders interned")
	}
	b := BuildOpts(tr, def, 3600, Options{Interner: in})
	if in.Len() != n {
		t.Fatalf("second build grew the interner: %d -> %d", n, in.Len())
	}
	if err := equalCorpora(a, b); err != nil {
		t.Fatalf("rebuild over a shared interner diverged: %v", err)
	}
}

// TestBuildMatchesLegacyStringSemantics pins the new integer path to the
// old string-path behaviour on a small hand-checked trace: same sequence
// headers, same word order, same vocabulary.
func TestBuildMatchesLegacyStringSemantics(t *testing.T) {
	tr := trace.New([]trace.Event{
		{Ts: 0, Src: netutil.MustParseIPv4("10.0.0.1"), Port: 23, Proto: packet.IPProtocolTCP},
		{Ts: 10, Src: netutil.MustParseIPv4("10.0.0.2"), Port: 23, Proto: packet.IPProtocolTCP},
		{Ts: 20, Src: netutil.MustParseIPv4("10.0.0.1"), Port: 22, Proto: packet.IPProtocolTCP},
		{Ts: 3700, Src: netutil.MustParseIPv4("10.0.0.3"), Port: 23, Proto: packet.IPProtocolTCP},
		{Ts: 3800, Src: netutil.MustParseIPv4("10.0.0.1"), Port: 23, Proto: packet.IPProtocolTCP},
	})
	c := BuildOpts(tr, services.NewDomain(), 3600, Options{})
	want := []struct {
		service string
		window  int
		words   []string
	}{
		{"ssh", 0, []string{"10.0.0.1"}},
		{"telnet", 0, []string{"10.0.0.1", "10.0.0.2"}},
		{"telnet", 1, []string{"10.0.0.3", "10.0.0.1"}},
	}
	if len(c.Sequences) != len(want) {
		t.Fatalf("sequences = %d, want %d", len(c.Sequences), len(want))
	}
	for i, w := range want {
		s := &c.Sequences[i]
		if s.Service != w.service || s.Window != w.window {
			t.Fatalf("seq %d = {%s w%d}, want {%s w%d}", i, s.Service, s.Window, w.service, w.window)
		}
		got := words(c, *s)
		if fmt.Sprint(got) != fmt.Sprint(w.words) {
			t.Fatalf("seq %d words = %v, want %v", i, got, w.words)
		}
	}
	v := vocabulary(c)
	if v["10.0.0.1"] != 3 || v["10.0.0.2"] != 1 || v["10.0.0.3"] != 1 {
		t.Fatalf("vocabulary = %v", v)
	}
	// First-appearance id assignment.
	for i, ip := range []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"} {
		if id, ok := c.Interner().ID(netutil.MustParseIPv4(ip)); !ok || id != uint32(i) {
			t.Fatalf("id(%s) = %d,%v, want %d", ip, id, ok, i)
		}
	}
}

// TestAutoWorkersSerialFallback pins the automatic worker policy: explicit
// requests are always honoured, while the automatic choice (0) takes the
// serial path below serialCutoff — benchmarking showed parallel build
// overheads dominate there — and only fans out on large inputs.
func TestAutoWorkersSerialFallback(t *testing.T) {
	if got := autoWorkers(0, serialCutoff-1); got != 1 {
		t.Fatalf("auto below cutoff: %d workers, want 1", got)
	}
	if got := autoWorkers(0, serialCutoff); got < 1 {
		t.Fatalf("auto at cutoff: %d workers", got)
	}
	if got := autoWorkers(4, 10); got != 4 {
		t.Fatalf("explicit 4 on tiny input: %d workers, want 4", got)
	}
	if got := autoWorkers(1, serialCutoff*2); got != 1 {
		t.Fatalf("explicit serial: %d workers, want 1", got)
	}
	if got := autoWorkers(8, 3); got != 3 {
		t.Fatalf("workers must clamp to events: got %d, want 3", got)
	}
}
