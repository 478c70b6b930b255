package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"time"

	"ntpscan/internal/obs"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

// jsonlTap is a campaign's Out writer. It hashes the JSONL stream in
// place of a file and notes when the latest flush wrote.
type jsonlTap struct {
	h            hash.Hash
	bytes, lines int64
	start, end   time.Time // the latest Write
	wrote        bool      // a Write happened since the last barrier
}

func newJSONLTap() *jsonlTap { return &jsonlTap{h: sha256.New()} }

func (j *jsonlTap) Write(p []byte) (int, error) {
	start := time.Now()
	j.h.Write(p)
	j.bytes += int64(len(p))
	j.lines += int64(bytes.Count(p, []byte{'\n'}))
	j.start, j.end, j.wrote = start, time.Now(), true
	return len(p), nil
}

func (j *jsonlTap) sum() string { return hex.EncodeToString(j.h.Sum(nil)) }

// telemetryTap is a campaign's Telemetry writer. The line for slice s
// is serialised right after AggregateSlice(s) returns, so each write's
// span starts there.
type telemetryTap struct {
	from  time.Time // when the latest AggregateSlice returned
	spans [][2]time.Time
}

func (t *telemetryTap) Write(p []byte) (int, error) {
	t.spans = append(t.spans, [2]time.Time{t.from, time.Now()})
	return len(p), nil
}

// barrierTap wraps the campaign's aggregator, the one sink called at
// every drain barrier including the post-Close tail. A slice's period
// runs from one AggregateSlice return to the next; within it the tap
// sees the JSONL write, infers the store append as the gap between
// that write and AggregateSlice (the campaign appends to the store in
// between), and times AggregateSlice itself.
type barrierTap struct {
	agg   *query.Aggregates
	jsonl *jsonlTap
	tel   *telemetryTap // nil when untraced
	tr    *tracer
	phase int // parent span of the slice spans

	last          time.Time // end of the previous barrier
	sliceMS       []float64
	appendMS      []float64
	uninferred    int // barriers with no JSONL write to infer the append from
	caps, results int64
}

func (b *barrierTap) AggregateSlice(slice int, caps []store.CaptureRow, results []*zgrab.Result) error {
	start := time.Now()
	err := b.agg.AggregateSlice(slice, caps, results)
	end := time.Now()
	b.caps += int64(len(caps))
	b.results += int64(len(results))
	b.sliceMS = append(b.sliceMS, ms(end.Sub(b.last)))
	id := b.tr.add(b.phase, "core", "slice", b.last, end)
	if b.jsonl.wrote {
		b.appendMS = append(b.appendMS, ms(start.Sub(b.jsonl.end)))
		b.tr.add(id, "sink", "jsonl", b.jsonl.start, b.jsonl.end)
		b.tr.add(id, "store", "store.append", b.jsonl.end, start)
	} else {
		b.uninferred++
	}
	b.tr.add(id, "query", "aggregate", start, end)
	if b.tel != nil {
		for _, s := range b.tel.spans {
			b.tr.add(id, "sink", "telemetry", s[0], s[1])
		}
		b.tel.spans = b.tel.spans[:0]
		b.tel.from = end
	}
	b.jsonl.wrote = false
	b.last = end
	return err
}

func (b *barrierTap) Snapshot() (json.RawMessage, error) { return b.agg.Snapshot() }
func (b *barrierTap) Restore(raw json.RawMessage) error  { return b.agg.Restore(raw) }

// pipelineCounts reads the deterministic per-layer counts from a
// pipeline registry snapshot and the fabric's dial and datagram
// counters.
func pipelineCounts(s obs.Snapshot, dials, udp int64) map[string]float64 {
	m := map[string]float64{
		"core.slices":               regSum(s, "campaign_slices_total"),
		"core.captures":             regSum(s, "campaign_captures_total"),
		"core.capture_events":       regSum(s, "capture_events_total"),
		"core.capture_dropped":      regSum(s, "capture_dropped_total"),
		"ntp.requests":              regSum(s, "ntp_requests_total"),
		"ntp.answered":              regSum(s, "ntp_answered_total"),
		"ntp.rate_limited":          regSum(s, "ntp_rate_limited_total"),
		"zgrab.submitted":           regSum(s, "scan_submitted_total"),
		"zgrab.completed":           regSum(s, "scan_completed_total"),
		"zgrab.suppressed":          regSum(s, "scan_suppressed_total"),
		"zgrab.shed":                regSum(s, "scan_shed_total"),
		"zgrab.probes":              regSum(s, "scan_probes_total"),
		"zgrab.retries":             regSum(s, "scan_retries_total"),
		"zgrab.success":             regSum(s, "scan_success_total"),
		"netsim.dials":              float64(dials),
		"netsim.udp_packets":        float64(udp),
		"store.segments_written":    regSum(s, "store_segments_written_total"),
		"store.bytes_written":       regSum(s, "store_bytes_written_total"),
		"store.compactions":         regSum(s, "store_compactions_total"),
		"store.segments_compacted":  regSum(s, "store_segments_compacted_total"),
		"store.blocks_read":         regSum(s, "store_blocks_read_total"),
		"store.blocks_skipped":      regSum(s, "store_blocks_skipped_total"),
		"store.block_cache_hits":    regSum(s, "store_block_cache_hits_total"),
		"store.block_cache_misses":  regSum(s, "store_block_cache_misses_total"),
		"store.footer_cache_hits":   regSum(s, "store_footer_cache_hits_total"),
		"store.footer_cache_misses": regSum(s, "store_footer_cache_misses_total"),
	}
	return m
}

// meanCounts averages count maps, one per world, into per-layer metrics
// and derives the ratios from the averaged counts.
func meanCounts(per []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range per {
		for k, v := range m {
			out[k] += v
		}
	}
	for k := range out {
		out[k] /= float64(len(per))
	}
	out["zgrab.success_ratio"] = ratio(out["zgrab.success"], out["zgrab.probes"])
	hits, misses := out["store.block_cache_hits"], out["store.block_cache_misses"]
	out["store.block_cache_hit_ratio"] = ratio(hits, hits+misses)
	hits, misses = out["store.footer_cache_hits"], out["store.footer_cache_misses"]
	out["store.footer_cache_hit_ratio"] = ratio(hits, hits+misses)
	for _, k := range []string{"store.block_cache_hits", "store.block_cache_misses",
		"store.footer_cache_hits", "store.footer_cache_misses"} {
		delete(out, k)
	}
	return out
}

// sameCounts reports the first key whose count differs between a and b.
func sameCounts(a, b map[string]float64) (string, bool) {
	for k, v := range a {
		if b[k] != v {
			return k, false
		}
	}
	return "", len(a) == len(b)
}

// worldRef is what a world must reproduce on every repeat: the digest
// of its output and its registry counts.
type worldRef struct {
	digest string
	counts map[string]float64
}

// worldCounts lists the worlds' counts, for meanCounts.
func worldCounts(refs []worldRef) []map[string]float64 {
	out := make([]map[string]float64, len(refs))
	for i, r := range refs {
		out[i] = r.counts
	}
	return out
}

// repeatStats accumulates what every repeat-based workload reports.
type repeatStats struct {
	setup, rate, peak     []float64
	wallTraced, wallPlain []float64
	rt                    rtAcc
}

// add records one repeat: its set-up time, its measured wall time and
// the results produced in it. A traced repeat also adds its runtime
// readings.
func (s *repeatStats) add(setup, wall time.Duration, results int, peakMB float64, traced bool, rt0, rt1 rtSnap) {
	s.setup = append(s.setup, setup.Seconds())
	s.rate = append(s.rate, float64(results)/wall.Seconds())
	s.peak = append(s.peak, peakMB)
	if traced {
		s.wallTraced = append(s.wallTraced, wall.Seconds())
		s.rt.add(rt0, rt1)
	} else {
		s.wallPlain = append(s.wallPlain, wall.Seconds())
	}
}

// report sets the end-to-end medians and, in a traced run, the
// per-layer counts averaged over the worlds, the runtime layer and the
// trace's own overhead and coverage.
func (s *repeatStats) report(o *outcome, e *env, counts []map[string]float64) {
	o.e2e["setup_s"] = median(s.setup)
	o.e2e["results_per_s"] = median(s.rate)
	o.e2e["peak_heap_mb"] = median(s.peak)
	o.sizes["repeats"] = len(s.setup)
	if !e.trace {
		return
	}
	o.layer = meanCounts(counts)
	for k, v := range s.rt.metrics() {
		o.layer[k] = v
	}
	o.layer["harness.trace_overhead_ratio"] = median(s.wallTraced)/median(s.wallPlain) - 1
	o.layer["harness.unattributed_ratio"] = unattributed(e.tr.all(), "repeat")
}
