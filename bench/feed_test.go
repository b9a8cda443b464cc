package main

import (
	"testing"
	"time"
)

func TestQuotaHoldsTheRateWithoutDrift(t *testing.T) {
	step := 10 * time.Millisecond
	for _, rate := range []int{1000, 800, 333, 7} {
		sent := 0
		for k := 0; k < 1000; k++ { // ten seconds of slots
			sent = quota(k, step, rate)
		}
		if sent != rate*10 {
			t.Errorf("rate %d: %d events after 10 s, want %d", rate, sent, rate*10)
		}
	}
	if quota(0, step, 1000) != 10 {
		t.Errorf("first slot at 1000/s carries %d events, want 10", quota(0, step, 1000))
	}
}

func TestSlotDue(t *testing.T) {
	start := time.Unix(100, 0)
	if got := slotDue(start, 10*time.Millisecond, 250); !got.Equal(start.Add(2500 * time.Millisecond)) {
		t.Errorf("slot 250 due at %v", got)
	}
}

// Open loop: a slot that overruns makes the following slots late, it does
// not move their due times, and the lateness is what gets reported.
func TestOpenLoopChargesStallsToLaterSlots(t *testing.T) {
	step := 4 * time.Millisecond
	start := time.Now().Add(2 * time.Millisecond)
	var dues []time.Time
	late, err := runOpenLoop(start, step, 10*step, func(k int, due time.Time) error {
		dues = append(dues, due)
		if k == 2 {
			time.Sleep(3 * step) // stall: slots 3 and 4 become due meanwhile
		}
		return nil
	})
	if err != nil || len(late) != 10 || len(dues) != 10 {
		t.Fatalf("ran %d slots (%d dues), err %v", len(late), len(dues), err)
	}
	for k, due := range dues {
		if !due.Equal(slotDue(start, step, k)) {
			t.Errorf("slot %d due time moved", k)
		}
	}
	if late[3] < (2*step).Seconds()*0.9 {
		t.Errorf("slot 3 lateness %.4fs does not show the stall before it", late[3])
	}
	if late[4] < step.Seconds()*0.9 {
		t.Errorf("slot 4 lateness %.4fs does not show the stall", late[4])
	}
	caughtUp := false
	for _, l := range late[5:] {
		caughtUp = caughtUp || l < step.Seconds()/2
	}
	if !caughtUp {
		t.Errorf("no slot after the stall ran on time: %v", late)
	}
}

func TestLatenessRule(t *testing.T) {
	late := make([]float64, 1000)
	for i := range late {
		late[i] = 0.0001
	}
	for i := 0; i < 100; i++ {
		late[i] = 0.5 // a VM freeze does not invalidate a run
	}
	if _, ok := latenessOK(late, 10*time.Millisecond); !ok {
		t.Error("0.1 ms typical lateness on a 10 ms step must be valid, freezes or not")
	}
	for i := range late {
		late[i] = 0.002
	}
	if p50, ok := latenessOK(late, 10*time.Millisecond); ok {
		t.Errorf("median lateness %.4fs is above 5%% of the step and must invalidate the run", p50)
	}
}
