package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "a.inner", Start: ms(15), End: ms(25), Parent: 1},
		// b and c overlap each other: the covered part is their union.
		{Name: "b", Start: ms(50), End: ms(80), Parent: 0},
		{Name: "c", Start: ms(70), End: ms(90), Parent: 0},
		// d sticks out of its parent and is clipped to it.
		{Name: "d", Start: ms(95), End: ms(120), Parent: 0},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(100 - 30 - 40 - 5), ms(20), ms(10), ms(30), ms(20), ms(25)}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestRecorderNestingAndRatio(t *testing.T) {
	r := newRecorder()
	root := r.begin("gen", 7)
	r.do("layer.x", 7, func() { time.Sleep(3 * time.Millisecond) })
	r.do("layer.y", 7, func() { time.Sleep(3 * time.Millisecond) })
	r.end(root)
	if len(r.spans) != 3 || r.spans[1].Parent != 0 || r.spans[2].Parent != 0 || r.spans[0].Parent != -1 {
		t.Fatalf("nesting wrong: %+v", r.spans)
	}
	if got := r.spanSumRatio("gen"); got < 0.9 || got > 1 {
		t.Errorf("span sum ratio = %v, want close to 1", got)
	}
	if n := len(r.seconds("layer.x")); n != 1 {
		t.Errorf("seconds(layer.x) has %d samples", n)
	}

	// A nil recorder runs the same code and records nothing.
	var off *recorder
	ran := false
	off.do("x", 0, func() { ran = true })
	off.set("n", 1)
	if !ran || off.seconds("x") != nil {
		t.Error("nil recorder must run fn and record nothing")
	}
}
