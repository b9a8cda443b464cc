package stream

// mappedRingBytes is the size of every window ring mapped and not yet
// unmapped: zero on builds whose rings live on the Go heap.
func mappedRingBytes() int64 { return mappedBytes.Load() }
