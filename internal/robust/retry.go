package robust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Backoff computes exponentially growing retry delays with multiplicative
// jitter, so a fleet of daemons whose dependency just died does not retry
// in lockstep. The zero value is usable: 500ms base, 1m cap, factor 2,
// ±20% jitter.
type Backoff struct {
	Base   time.Duration // delay before the first retry (default 500ms)
	Max    time.Duration // cap on any single delay (default 1m)
	Factor float64       // exponential growth per attempt (default 2)
	Jitter float64       // ± fraction of randomisation (default 0.2; negative disables)
	// Rand yields uniform [0,1) samples for the jitter; nil uses the
	// global math/rand source. Tests inject a deterministic source.
	Rand func() float64
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	ceil := b.Max
	if ceil <= 0 {
		ceil = time.Minute
	}
	factor := b.Factor
	if factor < 1 {
		factor = 2
	}
	d := float64(base) * math.Pow(factor, float64(attempt))
	if d > float64(ceil) {
		d = float64(ceil)
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		r := b.Rand
		if r == nil {
			r = rand.Float64
		}
		d *= 1 + jitter*(2*r()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	BreakerClosed   BreakerState = iota // healthy: calls pass
	BreakerOpen                         // tripped: calls refused
	BreakerHalfOpen                     // cooldown elapsed: one probe allowed
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// Breaker is a consecutive-failure circuit breaker. Threshold failures in a
// row trip it open; while open, Allow refuses work so a permanently broken
// dependency (a full disk, a poisoned input file) is not hammered forever.
// With a Cooldown, the breaker half-opens after the cooldown and admits a
// single probe: a success closes it, a failure re-opens it. Without one,
// an open breaker stays open. Safe for concurrent use.
type Breaker struct {
	Threshold int              // consecutive failures that trip the breaker (default 5)
	Cooldown  time.Duration    // open → half-open delay (0: stays open)
	Now       func() time.Time // injectable clock; nil uses time.Now

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 5
	}
	return b.Threshold
}

// Allow reports whether a call may proceed, transitioning open → half-open
// when the cooldown has elapsed. A half-open breaker admits only one probe
// until Success or Failure resolves it.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.Cooldown > 0 && b.now().Sub(b.openedAt) >= b.Cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	case BreakerHalfOpen:
		return false // a probe is already in flight
	}
	return false
}

// Success records a successful call, closing the breaker and resetting the
// failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
}

// Failure records a failed call; the Threshold-th consecutive failure (or
// any half-open probe failure) opens the breaker.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= b.threshold() {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// ErrGiveUp marks a Supervisor.Run that stopped retrying because its
// circuit breaker is open. Use errors.Is.
var ErrGiveUp = errors.New("robust: supervisor gave up (circuit breaker open)")

// SleepContext waits for d or until ctx is done, returning ctx.Err() when
// interrupted. It is the Supervisor's default Sleep.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Supervisor runs a function in a restart loop: on failure it waits an
// exponentially backed-off delay and tries again, until the function
// succeeds, the context dies, or the circuit breaker opens. It is the
// harness darkvecd runs retraining under — a transient failure (dirty input
// window, slow disk) retries, a persistent one trips the breaker and the
// daemon keeps serving its last good model.
type Supervisor struct {
	Backoff Backoff
	// Breaker, when non-nil, is consulted before every attempt and fed the
	// outcome of each that cancellation did not cut short; an open breaker
	// makes Run return ErrGiveUp. Sharing one Breaker across Runs lets
	// failures accumulate across cycles.
	Breaker *Breaker
	// Sleep waits between attempts; nil uses SleepContext. Tests inject a
	// recording clock so backoff timing is verified without wall-clock
	// sleeps.
	Sleep func(context.Context, time.Duration) error
	// Logf, when non-nil, narrates retries.
	Logf func(format string, args ...any)
}

// Run invokes fn until it succeeds or the supervisor gives up; name labels
// log lines. The returned error is nil on success, ctx.Err() on
// cancellation, or an ErrGiveUp wrapper when the breaker is open.
func (s *Supervisor) Run(ctx context.Context, name string, fn func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sleep := s.Sleep
	if sleep == nil {
		sleep = SleepContext
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.Breaker != nil && !s.Breaker.Allow() {
			if lastErr != nil {
				return fmt.Errorf("%w; last error: %v", ErrGiveUp, lastErr)
			}
			return ErrGiveUp
		}
		err := fn(ctx)
		if err == nil {
			if s.Breaker != nil {
				s.Breaker.Success()
			}
			return nil
		}
		// An attempt cut short by cancellation says nothing about the
		// dependency's health, so it does not count against the breaker.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if s.Breaker != nil {
			s.Breaker.Failure()
		}
		lastErr = err
		d := s.Backoff.Delay(attempt)
		if s.Logf != nil {
			s.Logf("%s: attempt %d failed (%v); retrying in %s", name, attempt+1, err, d.Round(time.Millisecond))
		}
		if serr := sleep(ctx, d); serr != nil {
			return serr
		}
	}
}
