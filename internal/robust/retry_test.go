package robust

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: -1}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %s, want %s", i, got, w)
		}
	}
}

func TestBackoffJitterIsDeterministicWithInjectedRand(t *testing.T) {
	// Rand pinned to 1.0-ε gives the +Jitter edge; pinned to 0 the -Jitter edge.
	up := Backoff{Base: time.Second, Max: time.Hour, Jitter: 0.5, Rand: func() float64 { return 0.999999 }}
	down := Backoff{Base: time.Second, Max: time.Hour, Jitter: 0.5, Rand: func() float64 { return 0 }}
	if d := up.Delay(0); d < 1400*time.Millisecond || d > 1500*time.Millisecond {
		t.Errorf("upper jitter edge = %s, want ~1.5s", d)
	}
	if d := down.Delay(0); d != 500*time.Millisecond {
		t.Errorf("lower jitter edge = %s, want 500ms", d)
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	d := b.Delay(0)
	if d < 400*time.Millisecond || d > 600*time.Millisecond {
		t.Fatalf("zero-value Delay(0) = %s, want 500ms ±20%%", d)
	}
	if d := b.Delay(100); d > time.Minute+time.Minute/5 {
		t.Fatalf("zero-value cap exceeded: %s", d)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := &Breaker{Threshold: 3}
	for i := 0; i < 2; i++ {
		b.Failure()
		if !b.Allow() {
			t.Fatalf("breaker open after %d failures, threshold 3", i+1)
		}
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker still closed at threshold")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s", b.State())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := &Breaker{Threshold: 2}
	b.Failure()
	b.Success()
	b.Failure()
	if !b.Allow() {
		t.Fatal("interleaved success must reset the consecutive-failure streak")
	}
}

func TestBreakerCooldownHalfOpenProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := &Breaker{Threshold: 1, Cooldown: time.Minute, Now: clock}
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker must be open")
	}
	now = now.Add(59 * time.Second)
	if b.Allow() {
		t.Fatal("breaker half-opened before cooldown")
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker must half-open after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admits only one probe")
	}
	// Failed probe re-opens; another cooldown is needed.
	b.Failure()
	if b.Allow() {
		t.Fatal("failed probe must re-open the breaker")
	}
	now = now.Add(61 * time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown must half-open again")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
}

// fakeSleep records requested delays and never actually sleeps, so backoff
// timing is asserted with zero wall-clock cost.
type fakeSleep struct{ delays []time.Duration }

func (f *fakeSleep) sleep(ctx context.Context, d time.Duration) error {
	f.delays = append(f.delays, d)
	return ctx.Err()
}

func TestSupervisorRetriesUntilSuccess(t *testing.T) {
	fs := &fakeSleep{}
	s := &Supervisor{
		Backoff: Backoff{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: -1},
		Sleep:   fs.sleep,
	}
	calls := 0
	err := s.Run(context.Background(), "flaky", func(context.Context) error {
		calls++
		if calls < 4 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(fs.delays) != len(want) {
		t.Fatalf("slept %v, want %v", fs.delays, want)
	}
	for i, d := range want {
		if fs.delays[i] != d {
			t.Fatalf("backoff[%d] = %s, want %s (got %v)", i, fs.delays[i], d, fs.delays)
		}
	}
}

func TestSupervisorBreakerGivesUp(t *testing.T) {
	fs := &fakeSleep{}
	br := &Breaker{Threshold: 3}
	s := &Supervisor{
		Backoff: Backoff{Base: time.Millisecond, Jitter: -1},
		Breaker: br,
		Sleep:   fs.sleep,
	}
	calls := 0
	boom := errors.New("disk on fire")
	err := s.Run(context.Background(), "doomed", func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, ErrGiveUp) {
		t.Fatalf("Run = %v, want ErrGiveUp", err)
	}
	if calls != 3 {
		t.Fatalf("attempts = %d, want exactly the breaker threshold", calls)
	}
	// The breaker stays open across Runs: the next cycle is refused without
	// a single call — this is what stops darkvecd hammering a dead retrain.
	err = s.Run(context.Background(), "doomed", func(context.Context) error {
		calls++
		return nil
	})
	if !errors.Is(err, ErrGiveUp) {
		t.Fatalf("second Run = %v, want ErrGiveUp", err)
	}
	if calls != 3 {
		t.Fatalf("open breaker still admitted work (calls = %d)", calls)
	}
}

func TestSupervisorContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	br := &Breaker{Threshold: 1}
	s := &Supervisor{
		Backoff: Backoff{Base: time.Millisecond, Jitter: -1},
		Breaker: br,
		Sleep:   (&fakeSleep{}).sleep,
	}
	calls := 0
	fn := func(context.Context) error {
		calls++
		cancel()
		return errors.New("failed because the world ended")
	}
	// The second Run starts already cancelled: it must not attempt at all.
	for run := 0; run < 2; run++ {
		if err := s.Run(ctx, "cancelled", fn); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run %d = %v, want context.Canceled", run, err)
		}
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want no retry after cancellation", calls)
	}
	if br.State() != BreakerClosed || br.Failures() != 0 {
		t.Fatalf("breaker %v with %d failures, want closed with 0: cancellation is not a failure",
			br.State(), br.Failures())
	}
}

func TestSleepContext(t *testing.T) {
	if err := SleepContext(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("SleepContext = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SleepContext(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SleepContext = %v", err)
	}
}
