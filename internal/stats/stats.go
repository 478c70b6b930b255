// Package stats provides the small statistical and counting utilities the
// analysis pipeline uses: medians and percentiles, frequency counters with
// deterministic ordering, and proportion tables.
package stats

import (
	"cmp"
	"sort"
)

// Median returns the median of xs (the mean of the two central elements
// for even-length input). It returns 0 for empty input. xs is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	// Halve before adding so extreme magnitudes cannot overflow.
	return s[n/2-1]/2 + s[n/2]/2
}

// MedianInts is Median over integer samples.
func MedianInts(xs []int) float64 {
	fs := make([]float64, len(xs))
	for i, v := range xs {
		fs[i] = float64(v)
	}
	return Median(fs)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Proportion returns part/total as a float, or 0 when total is 0.
func Proportion(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// Counter counts occurrences of comparable keys and reports them in a
// deterministic order (by descending count, ties broken by key order).
type Counter[K cmp.Ordered] struct {
	counts map[K]int
	total  int
}

// NewCounter returns an empty counter.
func NewCounter[K cmp.Ordered]() *Counter[K] {
	return &Counter[K]{counts: make(map[K]int)}
}

// Add increments key by one.
func (c *Counter[K]) Add(key K) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter[K]) AddN(key K, n int) {
	c.counts[key] += n
	c.total += n
}

// Count returns the count for key.
func (c *Counter[K]) Count(key K) int { return c.counts[key] }

// Total returns the sum of all counts.
func (c *Counter[K]) Total() int { return c.total }

// Distinct returns the number of distinct keys.
func (c *Counter[K]) Distinct() int { return len(c.counts) }

// Entry is one key/count pair of a Counter.
type Entry[K cmp.Ordered] struct {
	Key   K
	Count int
}

// Sorted returns all entries ordered by descending count, ties broken by
// ascending key. The result is deterministic for identical inputs.
func (c *Counter[K]) Sorted() []Entry[K] {
	out := make([]Entry[K], 0, len(c.counts))
	for k, n := range c.counts {
		out = append(out, Entry[K]{k, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Top returns the n highest-count entries (fewer if the counter holds
// fewer keys).
func (c *Counter[K]) Top(n int) []Entry[K] {
	s := c.Sorted()
	if len(s) > n {
		s = s[:n]
	}
	return s
}

// Keys returns the distinct keys in ascending order.
func (c *Counter[K]) Keys() []K {
	ks := make([]K, 0, len(c.counts))
	for k := range c.counts {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Merge adds all counts from other into c.
func (c *Counter[K]) Merge(other *Counter[K]) {
	for k, n := range other.counts {
		c.AddN(k, n)
	}
}

// Histogram buckets float samples into fixed-width bins over [lo, hi).
// Samples outside the range are clamped into the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	N      int
}

// NewHistogram creates a histogram with the given number of bins.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, bins)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	idx := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Bins) {
		idx = len(h.Bins) - 1
	}
	h.Bins[idx]++
	h.N++
}
