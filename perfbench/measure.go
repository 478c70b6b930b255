package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"ntpscan/internal/obs"
)

// minBeyond is how many samples must rank above a reported percentile.
const minBeyond = 10

// tailCandidates are the percentiles a tail is reported at, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

// tailQuantile is the highest candidate percentile, at most max, with
// at least minBeyond of n samples ranked above it. With too few
// samples for any candidate it returns 1, the maximum.
func tailQuantile(n int, max float64) float64 {
	for _, q := range tailCandidates {
		if q <= max && n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return q
		}
	}
	return 1
}

// dist summarises a sample of durations in milliseconds.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
}

// summarize reports the median, p90 and the tail at the highest
// percentile up to p99 that the sample supports.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailQuantile(len(s), 0.99)
	return dist{N: len(s), P50: quantile(s, 0.5), P90: quantile(s, 0.9), TailQ: q, Tail: quantile(s, q)}
}

// median of xs (nearest rank; 0 for an empty sample).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies collects per-operation durations from concurrent callers.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

// heapSampler polls the live heap (what the last collection marked
// reachable) and keeps the peak above a baseline taken after a forced
// collection. Live bytes do not depend on when the collector runs, as
// bytes awaiting collection do.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	base uint64
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler collects garbage, so every measured phase starts
// from the same heap, and then samples until Stop.
func startHeapSampler(every time.Duration) *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), base: heapObjects()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := heapObjects(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak above the baseline, in MB.
// A final forced collection measures what is still reachable, which
// the last sample may not have seen.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	if v := heapObjects(); v > h.peak {
		h.peak = v
	}
	if h.peak < h.base {
		return 0
	}
	return float64(h.peak-h.base) / (1 << 20)
}

// worldSeeds derives n world seeds from a workload seed (splitmix64).
func worldSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = z ^ (z >> 31)
	}
	return out
}

// forRepeats runs repeat over the run's worlds in passes, world i%n on
// the i-th repeat, until at least two whole passes have run and the
// measured time it reports adds up to the run length. In a traced run
// odd passes are traced and even ones are not, so trace overhead
// compares the same worlds.
func forRepeats(e *env, worlds int, repeat func(i, world int, traced bool) (time.Duration, error)) error {
	var timed time.Duration
	for i := 0; i < 2*worlds || timed < e.seconds || i%worlds != 0; i++ {
		d, err := repeat(i, i%worlds, e.trace && (i/worlds)%2 == 1)
		if err != nil {
			return err
		}
		timed += d
	}
	return nil
}

// rtSnap is a point-in-time reading of process-wide runtime counters.
type rtSnap struct {
	at        time.Time
	cpu       time.Duration
	gcCPU     float64
	gcCycles  uint64
	alloc     uint64
	mutexWait float64
}

var rtSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sync/mutex/wait/total:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtSamples))
	for i, n := range rtSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// A failed getrusage leaves cpu at zero; the metric then reads 0.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rtSnap{
		at:        time.Now(),
		cpu:       cpu,
		gcCPU:     s[0].Value.Float64(),
		gcCycles:  s[1].Value.Uint64(),
		alloc:     s[2].Value.Uint64(),
		mutexWait: s[3].Value.Float64(),
	}
}

// rtAcc accumulates runtime counter deltas over measured intervals.
type rtAcc struct {
	wall, cpu        time.Duration
	gcCPU, mutexWait float64
	gcCycles, alloc  uint64
}

// add accumulates the interval between readings a and b.
func (r *rtAcc) add(a, b rtSnap) {
	r.wall += b.at.Sub(a.at)
	r.cpu += b.cpu - a.cpu
	r.gcCPU += b.gcCPU - a.gcCPU
	r.mutexWait += b.mutexWait - a.mutexWait
	r.gcCycles += b.gcCycles - a.gcCycles
	r.alloc += b.alloc - a.alloc
}

// metrics are the runtime layer's per-layer metrics; cpu_util is CPU
// time over wall time times GOMAXPROCS, the serial-fraction signal.
func (r *rtAcc) metrics() map[string]float64 {
	return map[string]float64{
		"runtime.cpu_s":        r.cpu.Seconds(),
		"runtime.cpu_util":     ratio(r.cpu.Seconds(), r.wall.Seconds()*float64(runtime.GOMAXPROCS(0))),
		"runtime.gc_cpu_s":     r.gcCPU,
		"runtime.gc_cycles":    float64(r.gcCycles),
		"runtime.alloc_mb":     float64(r.alloc) / (1 << 20),
		"runtime.mutex_wait_s": r.mutexWait,
	}
}

// regSum reads a counter, gauge or counter vector from a registry
// snapshot, summing a vector's series (0 when unregistered).
func regSum(s obs.Snapshot, name string) float64 {
	var n int64
	for _, v := range s[name] {
		n += v
	}
	return float64(n)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
