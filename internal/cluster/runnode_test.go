package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ntpscan/internal/core"
	"ntpscan/internal/world"
)

// nodeTestConfig is a small campaign for the replica-driver tests.
func nodeTestConfig(seed uint64) core.Config {
	return core.Config{
		Seed: seed,
		World: world.Config{
			DeviceScale: 1e-3,
			AddrScale:   1e-6,
			ASScale:     0.02,
		},
		Workers:       8,
		CaptureBudget: 2000,
	}
}

// One node against a fabric: the replica's output is byte-identical to
// the plain single-process campaign, and — alone in the cluster — it
// is authoritative for every shard-slice task.
func TestRunNodeSoloMatchesSingleProcess(t *testing.T) {
	ctx := context.Background()
	var want bytes.Buffer
	base := core.NewPipeline(nodeTestConfig(7))
	if _, err := base.RunCampaign(ctx, core.CampaignOpts{Out: &want}); err != nil {
		t.Fatal(err)
	}

	p := core.NewPipeline(nodeTestConfig(7))
	fab, err := NewFabric(p.Cfg.CollectShards, Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	_, stats, err := RunNode(ctx, p, fab, 0, Config{Nodes: 1}, core.CampaignOpts{Out: &got})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("replica JSONL diverges from single-process run (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	if stats.Slices == 0 || stats.Executed != stats.Slices*int64(p.Cfg.CollectShards) {
		t.Errorf("replica executed %d tasks over %d slices, want full coverage (%d shards/slice)",
			stats.Executed, stats.Slices, p.Cfg.CollectShards)
	}
	if stats.Accepted != stats.Executed {
		t.Errorf("solo node accepted %d of %d executions — it should be authoritative for all",
			stats.Accepted, stats.Executed)
	}
	if stats.Fenced != 0 || stats.Offline != 0 {
		t.Errorf("solo node fenced %d / offline %d, want 0/0", stats.Fenced, stats.Offline)
	}
	claimed, completed, fenced := fab.TaskCounts()
	if claimed != completed+fenced {
		t.Errorf("fabric conservation violated: %d != %d + %d", claimed, completed, fenced)
	}
}

// Three concurrent replicas share one fabric: every replica's output is
// byte-identical to the oracle (determinism does not depend on lease
// outcomes), the fabric's books balance, and across the cluster each
// accepted task was accepted exactly once.
func TestRunNodeReplicasShareFabric(t *testing.T) {
	ctx := context.Background()
	const nodes = 3

	var want bytes.Buffer
	base := core.NewPipeline(nodeTestConfig(11))
	if _, err := base.RunCampaign(ctx, core.CampaignOpts{Out: &want}); err != nil {
		t.Fatal(err)
	}

	fab, err := NewFabric(base.Cfg.CollectShards, Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]bytes.Buffer, nodes)
	stats := make([]*NodeStats, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := core.NewPipeline(nodeTestConfig(11))
			_, stats[n], errs[n] = RunNode(ctx, p, fab, n, Config{Nodes: nodes},
				core.CampaignOpts{Out: &outs[n]})
		}()
	}
	wg.Wait()

	var accepted int64
	for n := 0; n < nodes; n++ {
		if errs[n] != nil {
			t.Fatalf("node %d: %v", n, errs[n])
		}
		if !bytes.Equal(outs[n].Bytes(), want.Bytes()) {
			t.Errorf("node %d replica JSONL diverges from single-process run (%d vs %d bytes)",
				n, outs[n].Len(), want.Len())
		}
		if stats[n].Executed != stats[n].Slices*int64(base.Cfg.CollectShards) {
			t.Errorf("node %d executed %d over %d slices, want full replica coverage",
				n, stats[n].Executed, stats[n].Slices)
		}
		accepted += stats[n].Accepted
	}
	claimed, completed, fenced := fab.TaskCounts()
	if completed != accepted {
		t.Errorf("fabric completed %d != nodes' accepted sum %d — a task was double-committed or lost",
			completed, accepted)
	}
	if claimed != completed+fenced {
		t.Errorf("fabric conservation violated: %d != %d + %d", claimed, completed, fenced)
	}
	t.Logf("cluster: claimed %d = completed %d + fenced %d", claimed, completed, fenced)
}

// A node index the fabric does not know is a configuration mismatch:
// the campaign aborts through the dispatch error path instead of
// producing an unaccounted store.
func TestRunNodeUnknownNodeAborts(t *testing.T) {
	p := core.NewPipeline(nodeTestConfig(5))
	fab, err := NewFabric(p.Cfg.CollectShards, Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The fabric is sized for one node; the replica believes in four.
	_, _, err = RunNode(context.Background(), p, fab, 2, Config{Nodes: 4}, core.CampaignOpts{})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("RunNode with unknown index = %v, want ErrUnknownNode through the campaign error path", err)
	}
}

// A fabric built with more shards than the replica's decomposition
// grants shards that do not exist locally: the campaign aborts with
// ErrLeaseTableMismatch instead of submitting them as accepted.
func TestRunNodeOversizedFabricAborts(t *testing.T) {
	p := core.NewPipeline(nodeTestConfig(5))
	fab, err := NewFabric(2*p.Cfg.CollectShards, Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunNode(context.Background(), p, fab, 0, Config{Nodes: 1}, core.CampaignOpts{})
	if !errors.Is(err, ErrLeaseTableMismatch) {
		t.Fatalf("RunNode against a %d-shard fabric = %v, want ErrLeaseTableMismatch",
			2*p.Cfg.CollectShards, err)
	}
	if stats.Accepted != 0 {
		t.Errorf("replica had %d submissions accepted under a mismatched table", stats.Accepted)
	}
}

// flakyAPI fails every control call in [fromSlice, toSlice) with a
// transport-style error, mimicking a coordinator restart window.
type flakyAPI struct {
	API
	fromSlice, toSlice int
	failures           int
}

func (f *flakyAPI) gate(slice int) error {
	if slice >= f.fromSlice && slice < f.toSlice {
		f.failures++
		return fmt.Errorf("transport: endpoint unavailable (scripted outage)")
	}
	return nil
}

func (f *flakyAPI) Claim(node, slice int) ([]Grant, error) {
	if err := f.gate(slice); err != nil {
		return nil, err
	}
	return f.API.Claim(node, slice)
}

func (f *flakyAPI) Heartbeat(node, slice int) ([]Grant, error) {
	if err := f.gate(slice); err != nil {
		return nil, err
	}
	return f.API.Heartbeat(node, slice)
}

func (f *flakyAPI) SubmitSlice(node, shard, slice int, epoch uint64) error {
	if err := f.gate(slice); err != nil {
		return err
	}
	return f.API.SubmitSlice(node, shard, slice, epoch)
}

// A control-plane outage mid-campaign (the fabric unreachable for a
// slice window) is tolerated: the replica keeps executing, re-Claims
// when the fabric answers again, and its output bytes do not move.
func TestRunNodeToleratesControlOutage(t *testing.T) {
	ctx := context.Background()
	var want bytes.Buffer
	base := core.NewPipeline(nodeTestConfig(13))
	if _, err := base.RunCampaign(ctx, core.CampaignOpts{Out: &want}); err != nil {
		t.Fatal(err)
	}

	p := core.NewPipeline(nodeTestConfig(13))
	fab, err := NewFabric(p.Cfg.CollectShards, Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyAPI{API: fab, fromSlice: 20, toSlice: 30}
	var got bytes.Buffer
	_, stats, err := RunNode(ctx, p, flaky, 0, Config{Nodes: 1}, core.CampaignOpts{Out: &got})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("replica output moved under a control-plane outage (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	if flaky.failures == 0 {
		t.Fatal("scripted outage never fired — the campaign has fewer slices than expected")
	}
	if stats.Offline == 0 {
		t.Error("outage produced no tolerated offline calls")
	}
	if stats.Accepted == 0 || stats.Accepted >= stats.Executed {
		t.Errorf("accepted %d of %d executions — expected partial authority during the outage",
			stats.Accepted, stats.Executed)
	}
}
