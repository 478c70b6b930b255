package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

// Campaign scale: cmd/experiments' defaults. A run cycles over
// campaignWorlds worlds drawn from its seed, so one unusual world moves
// a run's medians less.
const (
	campaignDeviceScale = 3e-3
	campaignAddrScale   = 6e-6
	campaignASScale     = 0.03
	campaignWorlds      = 6
)

func campaignConfig(seed uint64, workers int) core.Config {
	return core.Config{Seed: seed, Workers: workers, World: world.Config{
		DeviceScale: campaignDeviceScale, AddrScale: campaignAddrScale, ASScale: campaignASScale}}
}

// runCampaign measures the paper's campaign as cmd/experiments -store
// runs it: build the world, collect over the 96 slices with the
// real-time scan fed at each barrier, with the JSONL, columnar-store
// and aggregates sinks attached. Each world runs at least twice and
// must write the same bytes every time.
func runCampaign(e *env) (*outcome, error) {
	o := newOutcome()
	o.sizes["device_scale"] = campaignDeviceScale
	o.sizes["addr_scale"] = campaignAddrScale
	o.sizes["as_scale"] = campaignASScale
	o.sizes["worlds"] = campaignWorlds
	o.sizes["workers"] = e.workers
	o.sizes["slices"] = 96
	o.assumptions = []string{
		"slice spans run from one AggregateSlice return to the next, so the telemetry line of slice s lands in the span of slice s+1",
		"store.append is inferred as the gap between the slice's JSONL write and AggregateSlice; core appends to the store in that gap",
		"sink.jsonl times the Out writer only; JSONL encoding runs inside core before the write and counts as core compute",
	}

	seeds := worldSeeds(e.seed, campaignWorlds)
	refs := make([]worldRef, campaignWorlds)
	var (
		st                     repeatStats
		slices, appends        []float64
		jsonlBytes, uninferred int64
	)
	err := forRepeats(e, campaignWorlds, func(i, w int, traced bool) (time.Duration, error) {
		r, err := campaignRepeat(e, seeds[w], i, traced, &refs[w])
		if err != nil {
			return 0, err
		}
		o.op(r.err)
		st.add(r.setup, r.wall, r.results, r.peakMB, traced, r.rt0, r.rt1)
		slices = append(slices, r.tap.sliceMS...)
		if traced {
			appends = append(appends, r.tap.appendMS...)
			jsonlBytes += r.tap.jsonl.bytes
			uninferred += int64(r.tap.uninferred)
		}
		return r.wall, nil
	})
	if err != nil {
		return nil, err
	}
	st.report(o, e, worldCounts(refs))
	o.e2e["op_p50_ms"] = o.tail("core.slice_ms", slices).P50

	if e.trace {
		spans := e.tr.all()
		n := float64(len(st.wallTraced))
		traced := summarize(durations(spans, "slice"))
		o.layer["core.slice_ms_p50"], o.layer["core.slice_ms_p99"] = traced.P50, traced.Tail
		self := selfTimes(spans)
		var compute float64
		for _, s := range spans {
			if s.Name == "slice" {
				compute += float64(self[s.ID]) / 1e6
			}
		}
		o.layer["core.compute_ms"] = compute / n
		sinks := map[string]float64{}
		for _, name := range []string{"jsonl", "store.append", "aggregate", "telemetry"} {
			sinks[name] = totalMS(spans, name) / n
			o.layer["core.sinks_ms"] += sinks[name]
		}
		o.layer["sink.jsonl_ms"] = sinks["jsonl"]
		o.layer["sink.jsonl_bytes"] = float64(jsonlBytes) / n
		o.layer["sink.telemetry_ms"] = sinks["telemetry"]
		o.layer["store.append_ms"] = sinks["store.append"]
		o.layer["store.append_ms_p99"] = o.tail("store.append_ms", appends).Tail
		o.layer["store.write_amp"] = ratio(o.layer["store.bytes_written"], o.layer["sink.jsonl_bytes"])
		o.layer["query.aggregate_ms"] = sinks["aggregate"]
		o.assumptions = append(o.assumptions, fmt.Sprintf(
			"%d traced barriers had no JSONL write; their store append counts as core compute", uninferred))
	}
	return o, nil
}

// campaignRun is one repeat's measurements.
type campaignRun struct {
	setup, wall time.Duration
	results     int
	peakMB      float64
	tap         *barrierTap
	counts      map[string]float64
	rt0, rt1    rtSnap
	err         error // the campaign's error or a failed output check
}

func campaignRepeat(e *env, seed uint64, i int, traced bool, ref *worldRef) (*campaignRun, error) {
	var tr *tracer
	if traced {
		tr = e.tr
	}
	dir := filepath.Join(e.dir, fmt.Sprintf("campaign-%d", i))
	defer os.RemoveAll(dir)
	r := &campaignRun{}
	heap := startHeapSampler(2 * time.Millisecond)
	repStart := time.Now()
	rep := tr.open(0, "harness", "repeat", repStart)

	p := core.NewPipeline(campaignConfig(seed, e.workers))
	st, err := store.Open(dir, store.Options{Obs: p.Obs})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	agg := query.NewAggregates()
	r.setup = time.Since(repStart)
	tr.add(rep, "core", "setup", repStart, repStart.Add(r.setup))

	jsonl := newJSONLTap()
	r.tap = &barrierTap{agg: agg, jsonl: jsonl, tr: tr}
	opts := core.CampaignOpts{Out: jsonl, Store: st, Aggregates: r.tap}
	if traced {
		r.tap.tel = &telemetryTap{}
		opts.Telemetry = r.tap.tel
	}
	r.rt0 = readRuntime()
	start := time.Now()
	r.tap.last = start
	r.tap.phase = tr.open(rep, "core", "campaign", start)
	ds, err := p.RunCampaign(context.Background(), opts)
	r.wall = time.Since(start)
	r.rt1 = readRuntime()
	tr.close(r.tap.phase, start.Add(r.wall))
	r.peakMB = heap.Stop()
	if ds != nil {
		r.results = len(ds.Results)
	}
	dials, udp := p.W.Fabric().Stats()
	r.counts = pipelineCounts(p.Obs.Snapshot(), dials, udp)
	sha := jsonl.sum()
	if ref.digest == "" {
		ref.digest, ref.counts = sha, r.counts
	}
	checkStart := time.Now()
	r.err = errors.Join(err, r.check(ref, sha, st, agg))
	tr.add(rep, "harness", "check", checkStart, time.Now())
	tr.close(rep, time.Now())
	return r, nil
}

// check compares the repeat's outputs with the reference repeat and
// with the store the campaign wrote.
func (r *campaignRun) check(ref *worldRef, sha string, st *store.Store, agg *query.Aggregates) error {
	var errs []error
	if sha != ref.digest {
		errs = append(errs, fmt.Errorf("campaign: JSONL sha256 %s differs from the first repeat's %s", sha, ref.digest))
	}
	if k, ok := sameCounts(ref.counts, r.counts); !ok {
		errs = append(errs, fmt.Errorf("campaign: registry count %q differs from the first repeat", k))
	}
	if int64(r.results) != r.tap.jsonl.lines {
		errs = append(errs, fmt.Errorf("campaign: %d results but %d JSONL lines", r.results, r.tap.jsonl.lines))
	}
	caps, results, err := st.Rows()
	switch {
	case err != nil:
		errs = append(errs, fmt.Errorf("campaign: store rows: %w", err))
	case caps != r.tap.caps || results != r.tap.jsonl.lines:
		errs = append(errs, fmt.Errorf("campaign: store holds %d captures and %d results, sinks saw %d and %d",
			caps, results, r.tap.caps, r.tap.jsonl.lines))
	}
	full, err := query.FromStore(st)
	if err != nil {
		return errors.Join(append(errs, fmt.Errorf("campaign: recompute aggregates: %w", err))...)
	}
	live, _ := json.Marshal(agg.Table2())
	want, _ := json.Marshal(full.Table2())
	if string(live) != string(want) {
		errs = append(errs, fmt.Errorf("campaign: live Table2 %s differs from store recompute %s", live, want))
	}
	return errors.Join(errs...)
}
