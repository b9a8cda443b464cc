package robust

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Failures returns the current consecutive-failure streak.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}

// Clean reports a fully healthy ingest: nothing skipped, no truncation.
func (r *IngestReport) Clean() bool { return r.Skipped() == 0 && !r.Truncated() }

// Sum returns the payload length and CRC32C accumulated so far.
func (c *ChecksumWriter) Sum() (length uint64, crc uint32) { return c.n, c.crc }
