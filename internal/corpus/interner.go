package corpus

import (
	"math"
	"sync"

	"github.com/darkvec/darkvec/internal/netutil"
)

// Interner maps sender IPs to dense token ids and back: the one id ↔ sender
// table behind every corpus sequence, the vocabulary and the daemon's
// /v1/intern export. Ids are assigned in first-Intern order and never
// reassigned, and a sender's dotted-quad string is allocated exactly once,
// when it is first seen. Reusing one Interner across Builds (the
// rolling-window retrain loop does) keeps ids stable across snapshots, so a
// retrain only pays string conversion for senders it has never seen before.
//
// Individual methods are safe for concurrent use, but an Interner must
// not be shared by Builds running concurrently with each other.
type Interner struct {
	mu    sync.RWMutex
	byIP  map[netutil.IPv4]uint32
	words []string // id → dotted quad, append-only
}

// NewInterner returns an empty sender interner.
func NewInterner() *Interner {
	return &Interner{byIP: make(map[netutil.IPv4]uint32)}
}

// Intern returns ip's token id, assigning the next dense id — and paying
// the one-per-distinct-sender string allocation — if ip is new.
func (in *Interner) Intern(ip netutil.IPv4) uint32 {
	in.mu.RLock()
	id, ok := in.byIP[ip]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.byIP[ip]; ok {
		return id
	}
	id = uint32(len(in.words))
	in.words = append(in.words, ip.String())
	in.byIP[ip] = id
	return id
}

// ID returns ip's token id, if assigned.
func (in *Interner) ID(ip netutil.IPv4) (uint32, bool) {
	in.mu.RLock()
	id, ok := in.byIP[ip]
	in.mu.RUnlock()
	return id, ok
}

// Len returns the number of interned senders (also the next id).
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.words)
}

// Words copies the words of ids [lo, hi), clipped to the ids assigned so
// far, and returns them with that count. An empty range returns nil. Ids
// are never reassigned, so a range once read never changes.
func (in *Interner) Words(lo, hi int) (words []string, total int) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	total = len(in.words)
	lo = min(max(lo, 0), total)
	hi = min(max(hi, lo), total)
	return append([]string(nil), in.words[lo:hi]...), total
}

// Strings materialises the id → word table (fresh copy, O(n)).
func (in *Interner) Strings() []string {
	words, _ := in.Words(0, math.MaxInt)
	return words
}

// index returns the live IPv4 → id map for read-only bulk access. The
// caller must guarantee no concurrent Intern calls while using it — the
// builder's remap phase runs strictly after its merge phase, which is
// exactly that regime.
func (in *Interner) index() map[netutil.IPv4]uint32 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.byIP
}
