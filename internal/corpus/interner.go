package corpus

import (
	"sync"

	"github.com/darkvec/darkvec/internal/intern"
	"github.com/darkvec/darkvec/internal/netutil"
)

// Interner maps sender IPs to interned token ids. It is the corpus-side
// face of intern.Table: the table owns the dotted-quad strings and the
// id → string reverse lookup, while the IPv4-keyed index lets the corpus
// builder intern a packet's sender without materialising its string form
// at all — the string is allocated exactly once, when a sender is first
// seen. Reusing one Interner across Builds (the rolling-window retrain
// loop does) keeps ids stable across snapshots, so a retrain only pays
// string conversion for senders it has never seen before.
//
// Individual methods are safe for concurrent use, but an Interner must
// not be shared by Builds running concurrently with each other.
type Interner struct {
	tab *intern.Table

	mu   sync.RWMutex
	byIP map[netutil.IPv4]uint32
}

// NewInterner returns an empty sender interner.
func NewInterner() *Interner {
	return &Interner{tab: intern.New(), byIP: make(map[netutil.IPv4]uint32)}
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
	id = in.tab.Intern(ip.String())
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
func (in *Interner) Len() int { return in.tab.Len() }

// Strings materialises the id → word table (fresh copy, O(n)).
func (in *Interner) Strings() []string { return in.tab.Strings() }

// Table exposes the underlying string interner.
func (in *Interner) Table() *intern.Table { return in.tab }

// index returns the live IPv4 → id map for read-only bulk access. The
// caller must guarantee no concurrent Intern calls while using it — the
// builder's remap phase runs strictly after its merge phase, which is
// exactly that regime.
func (in *Interner) index() map[netutil.IPv4]uint32 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.byIP
}
