package main

import (
	"testing"
	"time"
)

func TestCoveredUnionsOverlaps(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, [][2]int64{{10, 20}, {30, 40}}, 20},
		{"overlapping", 0, 100, [][2]int64{{10, 30}, {20, 40}}, 30},
		{"nested", 0, 100, [][2]int64{{10, 50}, {20, 30}}, 40},
		{"unsorted", 0, 100, [][2]int64{{60, 70}, {10, 20}}, 20},
		{"clipped to parent", 50, 100, [][2]int64{{40, 60}, {90, 120}}, 20},
		{"outside", 50, 100, [][2]int64{{0, 40}, {100, 120}}, 0},
		{"adjacent", 0, 100, [][2]int64{{10, 20}, {20, 30}}, 20},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

// A span's self time is its duration minus the union of its children's
// intervals, not minus their summed durations.
func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps 2 by 10
		{ID: 4, Parent: 2, Start: 15, End: 25},
		{ID: 5, Parent: 1, Start: 90, End: 130}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 10, 5: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	if got := unattributed(spans[:1], "x"); got != 0 {
		t.Errorf("unattributed with no matching root = %v", got)
	}
}

func TestUnattributedShare(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "repeat", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "work", Start: 0, End: 75},
		{ID: 3, Name: "repeat", Start: 200, End: 300},
		{ID: 4, Parent: 3, Name: "work", Start: 200, End: 300},
	}
	if got := unattributed(spans, "repeat"); got != 0.125 {
		t.Errorf("unattributed = %v, want 25/200", got)
	}
}

func TestTracerParentsAndNil(t *testing.T) {
	var off *tracer
	if id := off.open(0, "l", "n", time.Now()); id != 0 {
		t.Errorf("nil tracer open = %d", id)
	}
	off.close(0, time.Now())
	if off.all() != nil {
		t.Error("nil tracer has spans")
	}

	tr := newTracer("run-1")
	t0 := tr.origin
	root := tr.open(0, "harness", "repeat", t0)
	child := tr.add(root, "core", "slice", t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.close(root, t0.Add(4*time.Millisecond))
	spans := tr.all()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[root-1].End != 4e6 || spans[child-1].dur() != 2e6 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.Run != "run-1" {
			t.Errorf("span %d run %q, want the tracer's", s.ID, s.Run)
		}
	}
	for _, st := range spanStats(spans) {
		if st.Count != 1 || st.SelfMS != 2 {
			t.Errorf("span stats %+v, want one span with 2 ms self time", st)
		}
	}
}
