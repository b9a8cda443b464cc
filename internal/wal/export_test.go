package wal

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// Compact runs compactLocked over every sealed segment.
func (l *Log) Compact(horizonTs int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked(horizonTs, len(l.sealed))
}
