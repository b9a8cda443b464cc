package main

import (
	"runtime"
	"time"
)

// An open loop sends on a schedule regardless of how the system is doing:
// slot k is due at start + k·step whether or not slot k−1 went out on time.
// Everything that is timed is timed from the slot's due time, so a stall in
// the generator or the daemon is charged to the requests it delayed.

// slotDue is when slot k of a schedule is due.
func slotDue(start time.Time, step time.Duration, k int) time.Time {
	return start.Add(time.Duration(k) * step)
}

// quota is how many events must have been sent by the end of slot k to hold
// rate events per second; the caller sends quota(k) − quota(k−1) in slot k,
// so fractional per-slot rates never drift.
func quota(k int, step time.Duration, rate int) int {
	return int(int64(k+1) * int64(step) * int64(rate) / int64(time.Second))
}

// sleepUntil waits for t. On a busy two-core box the kernel timer wakes a
// sleeper up to a millisecond late, more than the lateness budget, so the
// last stretch is spent yielding instead of sleeping.
func sleepUntil(t time.Time) {
	const spin = time.Millisecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpenLoop calls slot(k, due) once per step for the length of window and
// returns how late each call started, in seconds. A slot that overruns its
// step makes the next ones late; they are not skipped.
func runOpenLoop(start time.Time, step, window time.Duration, slot func(k int, due time.Time) error) ([]float64, error) {
	// A thread of its own: the generator must not queue behind the
	// harness's other goroutines for a scheduler slot.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	slots := int(window / step)
	late := make([]float64, 0, slots)
	for k := 0; k < slots; k++ {
		due := slotDue(start, step, k)
		sleepUntil(due)
		late = append(late, time.Since(due).Seconds())
		if err := slot(k, due); err != nil {
			return late, err
		}
	}
	return late, nil
}

// latenessOK applies the validity rule for an open-loop run: the generator
// must typically start a slot within 5 % of the schedule step, or the run
// says more about the load generator than about the system. The rule reads
// the median and not p99 because the sandbox VM is itself frozen for
// 0.1–0.6 s a few times a minute; those freezes reach every process alike,
// are charged to the timed operations through their due times, and are
// reported as the p99 beside it.
func latenessOK(late []float64, step time.Duration) (p50 float64, ok bool) {
	p50 = median(late)
	return p50, p50 <= 0.05*step.Seconds()
}
