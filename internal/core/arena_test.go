package core

import (
	"context"
	"testing"
)

// TestCampaignArenaCountersAcrossWorkers re-runs the worker-count
// identity check on the arena path: per-shard arenas keep the
// materialization sequence inside each shard's own stream, so worker
// scheduling must not leak into the dataset or the arena counters.
func TestCampaignArenaCountersAcrossWorkers(t *testing.T) {
	run := func(workers int) (uint64, map[string]int64) {
		cfg := testConfig(11)
		cfg.Workers = workers
		cfg.CaptureBudget = 3000
		p := NewPipeline(cfg)
		d := p.RunNTPCampaign(context.Background())
		arena := map[string]int64{
			"mat":      p.met.arenaMat.Value(),
			"hits":     p.met.arenaHits.Value(),
			"evict":    p.met.arenaEvict.Value(),
			"resident": p.met.arenaResident.Value(),
		}
		return datasetDigest(t, d), arena
	}

	base, arena1 := run(1)
	if arena1["mat"] == 0 {
		t.Fatal("campaign never materialized a device through the arenas")
	}
	for _, workers := range []int{3, 8} {
		got, arena := run(workers)
		if got != base {
			t.Errorf("workers=%d dataset digest %x, want %x", workers, got, base)
		}
		for k, v := range arena1 {
			if arena[k] != v {
				t.Errorf("workers=%d arena %s = %d, want %d", workers, k, arena[k], v)
			}
		}
	}
}
