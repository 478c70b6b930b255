package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -5, 7}, -1},
	}
	for _, c := range cases {
		if got := Median(c.in); !almost(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Median mutated input: %v", in)
	}
}

func TestMedianInts(t *testing.T) {
	if got := MedianInts([]int{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("MedianInts = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 30); !almost(got, 3) {
		t.Fatalf("Percentile(30) = %v, want 3", got)
	}
}

func TestMeanAndProportion(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Proportion(1, 4); !almost(got, 0.25) {
		t.Fatalf("Proportion = %v", got)
	}
	if got := Proportion(1, 0); got != 0 {
		t.Fatalf("Proportion(_,0) = %v", got)
	}
}

func TestCounterBasics(t *testing.T) {
	c := NewCounter[string]()
	c.Add("a")
	c.Add("b")
	c.AddN("a", 2)
	if c.Count("a") != 3 || c.Count("b") != 1 || c.Count("zzz") != 0 {
		t.Fatalf("counts wrong: a=%d b=%d", c.Count("a"), c.Count("b"))
	}
	if c.Total() != 4 {
		t.Fatalf("Total = %d", c.Total())
	}
	if c.Distinct() != 2 {
		t.Fatalf("Distinct = %d", c.Distinct())
	}
}

func TestCounterSortedDeterministic(t *testing.T) {
	c := NewCounter[string]()
	c.AddN("x", 5)
	c.AddN("a", 5)
	c.AddN("m", 9)
	got := c.Sorted()
	if got[0].Key != "m" || got[1].Key != "a" || got[2].Key != "x" {
		t.Fatalf("Sorted order wrong: %v", got)
	}
}

func TestCounterTopAndKeys(t *testing.T) {
	c := NewCounter[int]()
	for i := 0; i < 10; i++ {
		c.AddN(i, i)
	}
	top := c.Top(3)
	if len(top) != 3 || top[0].Key != 9 || top[1].Key != 8 || top[2].Key != 7 {
		t.Fatalf("Top wrong: %v", top)
	}
	keys := c.Keys()
	if !sort.IntsAreSorted(keys) {
		t.Fatalf("Keys not sorted: %v", keys)
	}
	if got := c.Top(100); len(got) != 10 {
		t.Fatalf("Top over-length = %d", len(got))
	}
}

func TestCounterMerge(t *testing.T) {
	a, b := NewCounter[string](), NewCounter[string]()
	a.AddN("x", 1)
	b.AddN("x", 2)
	b.AddN("y", 3)
	a.Merge(b)
	if a.Count("x") != 3 || a.Count("y") != 3 || a.Total() != 6 {
		t.Fatalf("merge wrong: %v %v %v", a.Count("x"), a.Count("y"), a.Total())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0, 1.9, 2, 5, 9.9, -3, 42} {
		h.Observe(v)
	}
	// -3 clamps into bin 0, 42 clamps into bin 4.
	want := []int{3, 1, 1, 0, 2}
	for i := range want {
		if h.Bins[i] != want[i] {
			t.Fatalf("Bins = %v, want %v", h.Bins, want)
		}
	}
	if h.N != 7 {
		t.Fatalf("N = %d, want 7", h.N)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	if h.N != 0 || len(h.Bins) != 3 {
		t.Fatalf("empty histogram: N = %d, %d bins", h.N, len(h.Bins))
	}
	for _, c := range h.Bins {
		if c != 0 {
			t.Fatal("empty histogram should have zero bins")
		}
	}
}

func TestHistogramDegenerateParams(t *testing.T) {
	h := NewHistogram(5, 5, 0)
	h.Observe(5)
	if h.N != 1 || len(h.Bins) != 1 {
		t.Fatalf("degenerate histogram mishandled: %+v", h)
	}
}

func TestMedianPropertyBounded(t *testing.T) {
	// Median must lie within [min, max] for any input.
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, v := range xs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return Median(clean) == 0
		}
		lo, hi := clean[0], clean[0]
		for _, v := range clean {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		m := Median(clean)
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterTotalProperty(t *testing.T) {
	// Total always equals the sum of Sorted counts.
	f := func(keys []uint8) bool {
		c := NewCounter[uint8]()
		for _, k := range keys {
			c.Add(k)
		}
		sum := 0
		for _, e := range c.Sorted() {
			sum += e.Count
		}
		return sum == c.Total() && c.Total() == len(keys)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
