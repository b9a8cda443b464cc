package corpus

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
)

// ip returns the i-th address of 10.0.0.0/8, so tests can mint many
// distinct senders with predictable words.
func ip(i int) netutil.IPv4 { return netutil.MustParseIPv4("10.0.0.0") + netutil.IPv4(i) }

func TestInternAssignsDenseIDsInOrder(t *testing.T) {
	in := NewInterner()
	senders := []string{"10.0.0.1", "10.0.0.2", "10.0.0.1", "192.168.0.9", "10.0.0.2"}
	want := []uint32{0, 1, 0, 2, 1}
	for i, s := range senders {
		if id := in.Intern(netutil.MustParseIPv4(s)); id != want[i] {
			t.Fatalf("Intern(%s) = %d, want %d", s, id, want[i])
		}
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3", in.Len())
	}
}

// TestWordsRoundTrip: Intern → ID → Words is the identity on every id, and
// ranges are clipped to the ids assigned.
func TestWordsRoundTrip(t *testing.T) {
	in := NewInterner()
	const n = 3*1024 + 37
	for i := 0; i < n; i++ {
		if id := in.Intern(ip(i)); id != uint32(i) {
			t.Fatalf("Intern(%s) = %d, want %d", ip(i), id, i)
		}
	}
	for i := 0; i < n; i++ {
		got, total := in.Words(i, i+1)
		if total != n || len(got) != 1 || got[0] != ip(i).String() {
			t.Fatalf("Words(%d, %d) = %q, %d; want [%s], %d", i, i+1, got, total, ip(i), n)
		}
		if id, ok := in.ID(ip(i)); !ok || id != uint32(i) {
			t.Fatalf("ID(%s) = %d,%v, want %d,true", ip(i), id, ok, i)
		}
	}
	for _, r := range [][2]int{{n, n + 1}, {n + 5, n}, {-3, 0}, {5, 2}} {
		if got, total := in.Words(r[0], r[1]); got != nil || total != n {
			t.Fatalf("Words(%d, %d) = %q, %d; want nil, %d", r[0], r[1], got, total, n)
		}
	}
	if got, _ := in.Words(n-2, n+100); !reflect.DeepEqual(got, []string{ip(n - 2).String(), ip(n - 1).String()}) {
		t.Fatalf("tail range = %q", got)
	}
}

func TestIDMissing(t *testing.T) {
	in := NewInterner()
	in.Intern(ip(1))
	if _, ok := in.ID(ip(2)); ok {
		t.Fatal("ID reported a sender that was never interned")
	}
}

func TestStringsMatchesInsertionOrder(t *testing.T) {
	in := NewInterner()
	for _, i := range []int{3, 1, 2, 1, 4} {
		in.Intern(ip(i))
	}
	want := []string{"10.0.0.3", "10.0.0.1", "10.0.0.2", "10.0.0.4"}
	if got := in.Strings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Strings = %q, want %q", got, want)
	}
}

// TestConcurrentIntern hammers one interner from many goroutines over an
// overlapping sender set and checks the invariants that make the interner
// an interner: one id per distinct sender, dense ids, stable words.
// Run under -race in CI.
func TestConcurrentIntern(t *testing.T) {
	in := NewInterner()
	const goroutines = 8
	const keys = 5000
	var wg sync.WaitGroup
	ids := make([][]uint32, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]uint32, keys)
			for i := 0; i < keys; i++ {
				// Overlapping, per-goroutine-rotated insertion order.
				k := (i + g*577) % keys
				ids[g][k] = in.Intern(ip(k))
				// Interleave reads of already-assigned ids.
				if i%64 == 0 {
					_, _ = in.Words(i%(in.Len()+1), i%(in.Len()+1)+1)
				}
			}
		}(g)
	}
	wg.Wait()
	if in.Len() != keys {
		t.Fatalf("Len = %d, want %d", in.Len(), keys)
	}
	words := in.Strings()
	for k := 0; k < keys; k++ {
		id, ok := in.ID(ip(k))
		if !ok {
			t.Fatalf("ID(%s) missing after concurrent intern", ip(k))
		}
		if words[id] != ip(k).String() {
			t.Fatalf("word %d = %q, want %s", id, words[id], ip(k))
		}
		for g := 0; g < goroutines; g++ {
			if ids[g][k] != id {
				t.Fatalf("goroutine %d saw id %d for %s, final id %d", g, ids[g][k], ip(k), id)
			}
		}
	}
}

// FuzzInternerRoundTrip reads IPv4s from the fuzz input (4 bytes each),
// interns them from several goroutines (each in a different order) while
// another goroutine pages Words, and checks the table's invariants: ids
// are dense and one-to-one, Intern → Words is the identity, and a page
// once read never changes. Run with -race to catch unsynchronised paths.
func FuzzInternerRoundTrip(f *testing.F) {
	f.Add([]byte{10, 0, 0, 1, 10, 0, 0, 2, 192, 168, 1, 1})
	f.Add([]byte{1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 0})
	f.Add([]byte{7})
	many := make([]byte, 4*300)
	for i := 0; i < 300; i++ {
		binary.BigEndian.PutUint32(many[4*i:], uint32(i))
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		var senders []netutil.IPv4
		seen := map[netutil.IPv4]bool{}
		for ; len(data) >= 4; data = data[4:] {
			s := netutil.IPv4(binary.BigEndian.Uint32(data))
			if !seen[s] {
				seen[s] = true
				senders = append(senders, s)
			}
		}
		in := NewInterner()
		type page struct {
			lo    int
			words []string
		}
		var pages []page
		stop := make(chan struct{})
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for r := 0; r < 1024; r++ {
				lo := r % 8
				words, total := in.Words(lo, lo+3)
				if want := max(min(lo+3, total)-lo, 0); len(words) != want {
					t.Errorf("Words(%d, %d) holds %d words of %d assigned", lo, lo+3, len(words), total)
					return
				}
				pages = append(pages, page{lo, words})
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		const goroutines = 4
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range senders {
					s := senders[(i+g*13)%len(senders)]
					id := in.Intern(s)
					if w, _ := in.Words(int(id), int(id)+1); len(w) != 1 || w[0] != s.String() {
						t.Errorf("Words(Intern(%s)) = %q", s, w)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		reader.Wait()

		if in.Len() != len(senders) {
			t.Fatalf("Len = %d, want %d distinct senders", in.Len(), len(senders))
		}
		// Dense and one-to-one.
		used := make([]bool, len(senders))
		for _, s := range senders {
			id, ok := in.ID(s)
			if !ok {
				t.Fatalf("ID(%s) missing", s)
			}
			if int(id) >= len(senders) {
				t.Fatalf("id %d out of dense range %d", id, len(senders))
			}
			if used[id] {
				t.Fatalf("id %d assigned twice", id)
			}
			used[id] = true
		}
		// Every page read mid-intern is a prefix of the same range now.
		for _, p := range pages {
			now, _ := in.Words(p.lo, p.lo+len(p.words))
			if !reflect.DeepEqual(now, p.words) {
				t.Fatalf("page at %d changed: %q -> %q", p.lo, p.words, now)
			}
		}
	})
}
