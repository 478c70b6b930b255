package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ntpscan/internal/cluster"
	"ntpscan/internal/cluster/transport"
	"ntpscan/internal/core"
	"ntpscan/internal/obs"
	"ntpscan/internal/world"
)

// The wire campaign runs on small worlds, so the control plane
// dominates.
const (
	clusterDeviceScale = 6e-4
	clusterAddrScale   = 2e-6
	clusterASScale     = campaignASScale
	clusterWorlds      = 4
)

func clusterConfig(seed uint64, workers int) core.Config {
	return core.Config{Seed: seed, Workers: workers, World: world.Config{
		DeviceScale: clusterDeviceScale, AddrScale: clusterAddrScale, ASScale: clusterASScale}}
}

// timedAPI wraps one node's control-plane client, timing every call.
// A stale-epoch rejection is the protocol working, not a failure.
type timedAPI struct {
	api    cluster.API
	calls  *rpcLog
	tr     *tracer
	parent *int
}

// rpcLog collects the control calls of every node.
type rpcLog struct {
	lat  latencies
	mu   sync.Mutex
	errs []error
}

func (t *timedAPI) record(method string, start time.Time, err error) {
	end := time.Now()
	t.calls.lat.add(end.Sub(start))
	if err != nil && !errors.Is(err, cluster.ErrStaleEpoch) {
		t.calls.mu.Lock()
		t.calls.errs = append(t.calls.errs, fmt.Errorf("cluster: %s: %w", method, err))
		t.calls.mu.Unlock()
	}
	t.tr.add(*t.parent, "cluster", method, start, end)
}

func (t *timedAPI) Claim(node, slice int) ([]cluster.Grant, error) {
	start := time.Now()
	g, err := t.api.Claim(node, slice)
	t.record("rpc.claim", start, err)
	return g, err
}

func (t *timedAPI) Heartbeat(node, slice int) ([]cluster.Grant, error) {
	start := time.Now()
	g, err := t.api.Heartbeat(node, slice)
	t.record("rpc.heartbeat", start, err)
	return g, err
}

func (t *timedAPI) SubmitSlice(node, shard, slice int, epoch uint64) error {
	start := time.Now()
	err := t.api.SubmitSlice(node, shard, slice, epoch)
	t.record("rpc.submit", start, err)
	return err
}

func (t *timedAPI) Release(node int) error {
	start := time.Now()
	err := t.api.Release(node)
	t.record("rpc.release", start, err)
	return err
}

// runCluster measures the campaign through cluster.Coordinator served
// over cluster/transport on loopback, one client per node, with no
// sinks beyond a hashed JSONL stream. Every repeat's JSONL must equal an
// untimed in-process single-node run of its world.
func runCluster(e *env) (*outcome, error) {
	o := newOutcome()
	nodes := e.workers
	o.sizes["device_scale"] = clusterDeviceScale
	o.sizes["addr_scale"] = clusterAddrScale
	o.sizes["as_scale"] = clusterASScale
	o.sizes["worlds"] = clusterWorlds
	o.sizes["nodes"] = nodes
	o.sizes["workers"] = e.workers

	// Preparation, not measured: the in-process references.
	seeds := worldSeeds(e.seed, clusterWorlds)
	refs := make([]worldRef, clusterWorlds)
	for w, seed := range seeds {
		jsonl := newJSONLTap()
		if _, err := core.NewPipeline(clusterConfig(seed, e.workers)).RunCampaign(context.Background(),
			core.CampaignOpts{Out: jsonl}); err != nil {
			return nil, fmt.Errorf("reference campaign: %w", err)
		}
		refs[w].digest = jsonl.sum()
	}

	var (
		st       repeatStats
		rpcShare []float64
		rpcs     [][]float64
	)
	err := forRepeats(e, clusterWorlds, func(i, w int, traced bool) (time.Duration, error) {
		r, err := clusterRepeat(e, seeds[w], nodes, traced, &refs[w])
		if err != nil {
			return 0, err
		}
		o.op(r.err)
		for _, err := range r.rpcErrs {
			o.op(err)
		}
		for j := len(r.rpcErrs); j < len(r.rpcMS); j++ {
			o.op(nil)
		}
		st.add(r.setup, r.wall, r.results, r.peakMB, traced, r.rt0, r.rt1)
		rpcs = append(rpcs, r.rpcMS)
		if traced {
			rpcShare = append(rpcShare, r.rpcShare)
		}
		return r.wall, nil
	})
	if err != nil {
		return nil, err
	}
	st.report(o, e, worldCounts(refs))
	d := o.perRepeat("cluster.rpc_ms", rpcs)
	o.e2e["op_p50_ms"] = d.P50

	if e.trace {
		o.layer["cluster.rpc_ms_p50"], o.layer["cluster.rpc_ms_p99"] = d.P50, d.Tail
		o.layer["cluster.rpc_share"] = median(rpcShare)
		o.assumptions = []string{
			"cluster.rpc_share is the part of the campaign's wall time with at least one control call in flight",
		}
	}
	return o, nil
}

type clusterRun struct {
	setup, wall time.Duration
	results     int
	peakMB      float64
	rpcMS       []float64
	rpcErrs     []error
	rpcShare    float64
	rt0, rt1    rtSnap
	err         error
}

func clusterRepeat(e *env, seed uint64, nodes int, traced bool, ref *worldRef) (*clusterRun, error) {
	var tr *tracer
	if traced {
		tr = e.tr
	}
	r := &clusterRun{}
	heap := startHeapSampler(2 * time.Millisecond)
	t0 := time.Now()
	rep := tr.open(0, "harness", "repeat", t0)
	p := core.NewPipeline(clusterConfig(seed, e.workers))
	coord, err := cluster.NewCoordinator(p, cluster.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	srvReg, clientReg := obs.NewRegistry(), obs.NewRegistry()
	ep, err := transport.ListenLoopback(transport.NewServer(coord, srvReg))
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	var calls rpcLog
	var phase int
	dial := transport.Dial(ep.URL, clientReg)
	coord.SetDial(func(node int) cluster.API {
		return &timedAPI{api: dial(node), calls: &calls, tr: tr, parent: &phase}
	})
	r.setup = time.Since(t0)
	tr.add(rep, "cluster", "setup", t0, t0.Add(r.setup))

	jsonl := newJSONLTap()
	r.rt0 = readRuntime()
	start := time.Now()
	phase = tr.open(rep, "core", "campaign", start)
	ds, err := coord.Run(context.Background(), core.CampaignOpts{Out: jsonl})
	r.wall = time.Since(start)
	r.rt1 = readRuntime()
	end := start.Add(r.wall)
	tr.close(phase, end)
	r.peakMB = heap.Stop()
	if ds != nil {
		r.results = len(ds.Results)
	}
	sha := jsonl.sum()
	r.rpcMS, r.rpcErrs = calls.lat.values(), calls.errs

	dials, udp := p.W.Fabric().Stats()
	counts := pipelineCounts(p.Obs.Snapshot(), dials, udp)
	cs, ws := coord.Obs.Snapshot(), clientReg.Snapshot()
	wire, attempts, retries := regSum(ws, "transport_client_calls_total"),
		regSum(ws, "transport_client_attempts_total"), regSum(ws, "transport_client_retries_total")
	counts["cluster.rpcs"] = wire
	counts["cluster.tasks_completed"] = regSum(cs, "cluster_tasks_completed_total")
	counts["cluster.epoch_rejections"] = regSum(cs, "cluster_epoch_rejections_total")
	counts["transport.attempts"] = attempts
	counts["transport.retries"] = retries
	counts["transport.bytes_out"] = regSum(ws, "transport_client_bytes_out_total")
	counts["transport.bytes_in"] = regSum(ws, "transport_client_bytes_in_total")
	if traced {
		var ivs [][2]int64
		for _, s := range tr.all() {
			if s.Parent == phase {
				ivs = append(ivs, [2]int64{s.Start, s.End})
			}
		}
		ph := tr.all()[phase-1]
		r.rpcShare = ratio(float64(covered(ph.Start, ph.End, ivs)), float64(ph.dur()))
	}
	var errs []error
	if err != nil {
		errs = append(errs, fmt.Errorf("cluster: campaign: %w", err))
	}
	if sha != ref.digest {
		errs = append(errs, fmt.Errorf("cluster: wire JSONL sha256 %s differs from in-process %s", sha, ref.digest))
	}
	if ref.counts == nil {
		ref.counts = counts
	} else if k, ok := sameCounts(ref.counts, counts); !ok {
		errs = append(errs, fmt.Errorf("cluster: registry count %q differs from the world's first repeat", k))
	}
	if attempts != wire+retries {
		errs = append(errs, fmt.Errorf("cluster: transport ledger broken: %v attempts, %v calls, %v retries", attempts, wire, retries))
	}
	if int(wire) != len(r.rpcMS) {
		errs = append(errs, fmt.Errorf("cluster: %v wire calls but %d timed", wire, len(r.rpcMS)))
	}
	r.err = errors.Join(errs...)
	tr.close(rep, time.Now())
	return r, nil
}
