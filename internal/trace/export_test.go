package trace

import (
	"github.com/darkvec/darkvec/internal/netutil"
)

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// PortSenders returns the number of distinct senders per port key.
func (t *Trace) PortSenders() map[PortKey]int {
	seen := make(map[PortKey]map[netutil.IPv4]bool)
	for _, e := range t.Events {
		k := e.Key()
		if seen[k] == nil {
			seen[k] = make(map[netutil.IPv4]bool)
		}
		seen[k][e.Src] = true
	}
	out := make(map[PortKey]int, len(seen))
	for k, s := range seen {
		out[k] = len(s)
	}
	return out
}

// SenderFirstSeen returns each sender's first event timestamp.
func (t *Trace) SenderFirstSeen() map[netutil.IPv4]int64 {
	m := make(map[netutil.IPv4]int64)
	for _, e := range t.Events {
		if _, ok := m[e.Src]; !ok {
			m[e.Src] = e.Ts
		}
	}
	return m
}
