package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// In an open loop a stall charges every operation queued behind it:
// latency counts from each operation's due time, not from when a
// worker picked it up.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const every, stall = 2 * time.Millisecond, 100 * time.Millisecond
	start := time.Now().Add(time.Millisecond)
	r := runOpenLoop(start, every, 10, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if r.fromDue[0] < stall {
		t.Errorf("stalled op latency %v < stall %v", r.fromDue[0], stall)
	}
	for i := 1; i < 10; i++ {
		// Op i was due i*every after op 0 and could not start before
		// op 0 finished.
		if min := stall - time.Duration(i)*every; r.fromDue[i] < min {
			t.Errorf("op %d latency %v, want at least %v", i, r.fromDue[i], min)
		}
		if r.service[i] > r.fromDue[i] {
			t.Errorf("op %d service %v exceeds latency from due %v", i, r.service[i], r.fromDue[i])
		}
	}
	// The generator itself was not held up by the stall.
	for i, l := range r.late {
		if l > stall/2 {
			t.Errorf("generator queued op %d %v late", i, l)
		}
	}
}

func TestOpenLoopKeepsErrorsPerOperation(t *testing.T) {
	boom := errors.New("boom")
	r := runOpenLoop(time.Now(), 0, 6, 3, func(i int) error {
		if i%3 == 0 {
			return boom
		}
		return nil
	})
	for i, err := range r.errs {
		if (i%3 == 0) != errors.Is(err, boom) {
			t.Errorf("op %d error %v", i, err)
		}
	}
}

// Busy time is the union of the operations' service intervals: overlap
// between connections counts once and idle gaps not at all.
func TestOpenLoopBusyUnionsServiceIntervals(t *testing.T) {
	const every = 10 * time.Millisecond
	ms := time.Millisecond
	r := loopResult{
		// Op i was due at i*every; it completed fromDue later after
		// service time in service.
		fromDue: []time.Duration{4 * ms, 3 * ms, 12 * ms, 5 * ms},
		service: []time.Duration{4 * ms, 2 * ms, 6 * ms, 5 * ms},
	}
	// Intervals [0,4], [11,13], [26,32] and [30,35]: 4 + 2 + 9 ms.
	if got, want := r.busy(every, 0, 4), 15*ms; got != want {
		t.Errorf("busy = %v, want %v", got, want)
	}
	// Windows of two operations: 2 ops over 6 ms, then 2 over 9 ms.
	got := r.capacity(every, 2)
	if want := []float64{2 / 0.006, 2 / 0.009}; len(got) != 2 || math.Abs(got[0]-want[0]) > 1e-6 || math.Abs(got[1]-want[1]) > 1e-6 {
		t.Errorf("capacity = %v, want %v", got, want)
	}
	// A partial last window is dropped.
	if got := r.capacity(every, 3); len(got) != 1 {
		t.Errorf("capacity in windows of 3 = %v, want one window", got)
	}
}
