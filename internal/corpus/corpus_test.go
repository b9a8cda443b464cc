package corpus

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/trace"
)

func ev(ts int64, src string, port uint16) trace.Event {
	return trace.Event{
		Ts:    ts,
		Src:   netutil.MustParseIPv4(src),
		Port:  port,
		Proto: packet.IPProtocolTCP,
	}
}

// words materialises a sequence's dotted-quad words through the corpus's
// interner.
func words(c *Corpus, s Sequence) []string {
	senders := c.Interner().Strings()
	out := make([]string, len(s.Tokens))
	for i, id := range s.Tokens {
		out[i] = senders[id]
	}
	return out
}

// vocabulary maps each word of the corpus to its frequency.
func vocabulary(c *Corpus) map[string]int64 {
	senders := c.Interner().Strings()
	v := make(map[string]int64)
	for id, n := range c.Counts {
		if n > 0 {
			v[senders[id]] = n
		}
	}
	return v
}

func TestBuildSplitsByServiceAndWindow(t *testing.T) {
	// Two services (telnet 23, ssh 22) over two one-hour windows.
	tr := trace.New([]trace.Event{
		ev(0, "10.0.0.1", 23),
		ev(10, "10.0.0.2", 23),
		ev(20, "10.0.0.3", 22),
		ev(3600, "10.0.0.4", 23),
		ev(3700, "10.0.0.5", 22),
	})
	c := BuildOpts(tr, services.NewDomain(), 3600, Options{})
	if len(c.Sequences) != 4 {
		t.Fatalf("sequences = %d: %+v", len(c.Sequences), c.Sequences)
	}
	// Stable order: window asc, then service name asc.
	wantServices := []string{"ssh", "telnet", "ssh", "telnet"}
	wantWindows := []int{0, 0, 1, 1}
	for i, s := range c.Sequences {
		if s.Service != wantServices[i] || s.Window != wantWindows[i] {
			t.Fatalf("seq %d = {%s w%d}, want {%s w%d}", i, s.Service, s.Window, wantServices[i], wantWindows[i])
		}
	}
	// Arrival order within a cell.
	if got := words(c, c.Sequences[1]); !reflect.DeepEqual(got, []string{"10.0.0.1", "10.0.0.2"}) {
		t.Fatalf("telnet window 0 words = %v", got)
	}
}

func TestBuildSameSenderMultipleServices(t *testing.T) {
	tr := trace.New([]trace.Event{
		ev(0, "10.0.0.1", 23),
		ev(1, "10.0.0.1", 22),
	})
	c := BuildOpts(tr, services.NewDomain(), 3600, Options{})
	count := 0
	for i := range c.Sequences {
		for _, w := range words(c, c.Sequences[i]) {
			if w == "10.0.0.1" {
				count++
			}
		}
	}
	if count != 2 {
		t.Fatalf("sender must appear in both services, got %d", count)
	}
}

func TestTokensAndVocabulary(t *testing.T) {
	tr := trace.New([]trace.Event{
		ev(0, "10.0.0.1", 23),
		ev(1, "10.0.0.1", 23),
		ev(2, "10.0.0.2", 23),
	})
	c := BuildOpts(tr, services.Single{}, 3600, Options{})
	if c.Tokens() != 3 {
		t.Fatalf("tokens = %d", c.Tokens())
	}
	v := vocabulary(c)
	if v["10.0.0.1"] != 2 || v["10.0.0.2"] != 1 {
		t.Fatalf("vocab = %v", v)
	}
}

func TestSkipGramCounts(t *testing.T) {
	tr := trace.New([]trace.Event{
		ev(0, "10.0.0.1", 23),
		ev(1, "10.0.0.2", 23),
		ev(2, "10.0.0.3", 23),
		ev(3, "10.0.0.4", 23),
	})
	c := BuildOpts(tr, services.Single{}, 3600, Options{})
	// One sequence of length 4, window 2.
	// Padded: 4 tokens × 2·2 = 16.
	if got := c.SkipGrams(2, true); got != 16 {
		t.Fatalf("padded = %d", got)
	}
	// Clipped: positions contribute 2+3+3+2 = 10.
	if got := c.SkipGrams(2, false); got != 10 {
		t.Fatalf("clipped = %d", got)
	}
	// Window larger than the sequence: clipped = n(n-1) ordered pairs.
	if got := c.SkipGrams(10, false); got != 12 {
		t.Fatalf("wide clipped = %d", got)
	}
}

func TestBuildDeterminism(t *testing.T) {
	events := []trace.Event{
		ev(0, "10.0.0.1", 23), ev(0, "10.0.0.2", 22), ev(0, "10.0.0.3", 445),
		ev(3601, "10.0.0.4", 23), ev(7300, "10.0.0.5", 22),
	}
	a := BuildOpts(trace.New(append([]trace.Event(nil), events...)), services.NewDomain(), 3600, Options{})
	b := BuildOpts(trace.New(append([]trace.Event(nil), events...)), services.NewDomain(), 3600, Options{})
	if err := equalCorpora(a, b); err != nil {
		t.Fatalf("corpus construction must be deterministic: %v", err)
	}
}

// equalCorpora compares two corpora structurally: sequence order, service
// and window labels, token ids, per-id counts and the id → word tables.
func equalCorpora(a, b *Corpus) error {
	if len(a.Sequences) != len(b.Sequences) {
		return fmt.Errorf("sequences %d != %d", len(a.Sequences), len(b.Sequences))
	}
	for i := range a.Sequences {
		sa, sb := &a.Sequences[i], &b.Sequences[i]
		if sa.Service != sb.Service || sa.Window != sb.Window {
			return fmt.Errorf("seq %d header {%s w%d} != {%s w%d}", i, sa.Service, sa.Window, sb.Service, sb.Window)
		}
		if !reflect.DeepEqual(sa.Tokens, sb.Tokens) {
			return fmt.Errorf("seq %d tokens diverge: %v != %v", i, sa.Tokens, sb.Tokens)
		}
	}
	if !reflect.DeepEqual(a.Counts, b.Counts) {
		return fmt.Errorf("counts diverge: %v != %v", a.Counts, b.Counts)
	}
	if !reflect.DeepEqual(a.Interner().Strings(), b.Interner().Strings()) {
		return fmt.Errorf("interner tables diverge")
	}
	return nil
}

func TestBuildDefaultDeltaT(t *testing.T) {
	tr := trace.New([]trace.Event{ev(0, "10.0.0.1", 23)})
	c := BuildOpts(tr, services.Single{}, 0, Options{})
	if c.DeltaT != DefaultDeltaT {
		t.Fatalf("deltaT = %d", c.DeltaT)
	}
}

func TestEmptyTrace(t *testing.T) {
	c := BuildOpts(&trace.Trace{}, services.Single{}, 3600, Options{})
	if len(c.Sequences) != 0 || c.Tokens() != 0 || c.SkipGrams(5, true) != 0 {
		t.Fatal("empty trace must yield empty corpus")
	}
}
