//go:build race

package w2v

import "sync"

// Hogwild training (multi-worker SGD) updates shared weight rows without
// locks by design — the overlapping writes are the algorithm (Recht et
// al., 2011), not a bug, and single-worker runs stay fully deterministic.
// The race detector cannot tell these sanctioned races from accidental
// ones, so race builds serialise the weight updates through this mutex.
// That keeps `go test -race` meaningful for everything else in the
// package (worker fan-out, cancellation, the progress counters) without
// slowing production builds at all.
type raceMutex = sync.Mutex
