package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// the program. Spans of one run share Run; Parent is the id of the
// enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a run's spans in memory. A nil *tracer records nothing,
// so untraced code paths call it unconditionally.
type tracer struct {
	run    string
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(run string) *tracer { return &tracer{run: run, origin: time.Now()} }

// open starts a span and returns its id (0 on a nil tracer).
func (t *tracer) open(parent int, layer, name string, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Layer: layer, Name: name,
		Start: start.Sub(t.origin).Nanoseconds()})
	return id
}

// close ends span id.
func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	id := t.open(parent, layer, name, start)
	t.close(id, end)
	return id
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered is how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range c {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// selfTimes maps each span id to its duration minus the part of its
// interval its children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// spanStat aggregates the spans of one (layer, name).
type spanStat struct {
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func spanStats(spans []span) []spanStat {
	self := selfTimes(spans)
	idx := map[[2]string]*spanStat{}
	var out []*spanStat
	for _, s := range spans {
		k := [2]string{s.Layer, s.Name}
		st := idx[k]
		if st == nil {
			st = &spanStat{Layer: s.Layer, Name: s.Name}
			idx[k] = st
			out = append(out, st)
		}
		st.Count++
		st.TotalMS += float64(s.dur()) / 1e6
		st.SelfMS += float64(self[s.ID]) / 1e6
	}
	res := make([]spanStat, len(out))
	for i, st := range out {
		res[i] = *st
	}
	sort.Slice(res, func(i, j int) bool { return res[i].SelfMS > res[j].SelfMS })
	return res
}

// durations returns the durations in ms of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// totalMS sums the durations of the spans named name.
func totalMS(spans []span, name string) float64 {
	var t float64
	for _, d := range durations(spans, name) {
		t += d
	}
	return t
}

// unattributed is the share of the named root spans' wall time that no
// child span covers.
func unattributed(spans []span, root string) float64 {
	self := selfTimes(spans)
	var s, d int64
	for _, sp := range spans {
		if sp.Name == root {
			s += self[sp.ID]
			d += sp.dur()
		}
	}
	return ratio(float64(s), float64(d))
}

// traceFile is written at the end of a traced run: a header line, one
// line per span, and a summary line.
type traceHeader struct {
	Run         string   `json:"run"`
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Assumptions []string `json:"assumptions"`
}

type traceSummary struct {
	Spans       []spanStat      `json:"span_stats"`
	Percentiles map[string]dist `json:"percentiles"`
}

func writeTrace(path string, h traceHeader, spans []span, sum traceSummary) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(h); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(sum); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
