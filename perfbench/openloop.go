package main

import (
	"math"
	"sync"
	"time"
)

// loopResult is what an open loop measured, indexed by operation.
type loopResult struct {
	fromDue []time.Duration // completion minus due time
	service []time.Duration // completion minus dispatch to a worker
	late    []time.Duration // how late the generator queued the operation
	errs    []error
}

// runOpenLoop issues n operations, the i-th due at start + i*every,
// whether or not earlier ones have finished: a generator queues each at
// its due time and workers take them in order. Latency counts from the
// due time, so a stall also charges the operations queued behind it.
func runOpenLoop(start time.Time, every time.Duration, n, workers int, do func(i int) error) loopResult {
	r := loopResult{
		fromDue: make([]time.Duration, n),
		service: make([]time.Duration, n),
		late:    make([]time.Duration, n),
		errs:    make([]error, n),
	}
	due := func(i int) time.Time { return start.Add(time.Duration(i) * every) }
	// Sized to the number of sends, so the generator never blocks.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				begin := time.Now()
				r.errs[i] = do(i)
				end := time.Now()
				r.fromDue[i], r.service[i] = end.Sub(due(i)), end.Sub(begin)
			}
		}()
	}
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(due(i)))
		r.late[i] = time.Since(due(i))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return r
}

// busy is how long at least one of operations lo to hi-1 was in
// service: the union of their dispatch-to-completion intervals, for a
// loop with one operation due every every.
func (r loopResult) busy(every time.Duration, lo, hi int) time.Duration {
	ivs := make([][2]int64, 0, hi-lo)
	var last int64
	for i := lo; i < hi; i++ {
		end := int64(time.Duration(i)*every + r.fromDue[i])
		ivs = append(ivs, [2]int64{end - int64(r.service[i]), end})
		last = max(last, end)
	}
	return time.Duration(covered(math.MinInt64, last, ivs))
}

// capacity is, for each window of per consecutive operations, the
// operations completed per second of the window's busy time. Taking a
// median over windows keeps one stalled second from setting the figure.
func (r loopResult) capacity(every time.Duration, per int) []float64 {
	var out []float64
	for lo := 0; lo+per <= len(r.fromDue); lo += per {
		out = append(out, float64(per)/r.busy(every, lo, lo+per).Seconds())
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
