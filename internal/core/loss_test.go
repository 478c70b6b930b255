package core

import (
	"context"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/world"
)

// Failure injection: the pipeline must behave sensibly on a lossy
// fabric — degraded UDP scans, never hangs or crashes. Captures ride
// the shard codec path and never cross the lossy fabric.

func lossyConfig(seed uint64, loss float64) Config {
	return Config{
		Seed: seed,
		World: world.Config{
			DeviceScale: 1e-3,
			AddrScale:   1e-6,
			ASScale:     0.02,
			Loss:        loss,
		},
		Workers:       16,
		CaptureBudget: 2000,
	}
}

func TestLossyScanStillFindsDevices(t *testing.T) {
	cfg := lossyConfig(6, 0.3)
	cfg.CaptureBudget = 0
	p := NewPipeline(cfg)
	data := p.RunNTPCampaign(context.Background())
	resp, _, _ := analysis.HitRate(data)
	if resp == 0 {
		t.Fatal("nothing found through a 30% lossy fabric")
	}
	// TCP grabs are connection-oriented in the sim (loss applies to
	// datagrams), so HTTP findings survive; CoAP suffers.
	groups := analysis.TitleGroups(data)
	if analysis.FindGroup(groups, "FRITZ!Box") == nil {
		t.Fatal("TCP findings lost under UDP loss")
	}
}

func TestCoAPDegradesUnderLoss(t *testing.T) {
	count := func(loss float64) int {
		cfg := lossyConfig(7, loss)
		cfg.CaptureBudget = 0
		p := NewPipeline(cfg)
		data := p.RunNTPCampaign(context.Background())
		n := 0
		for _, r := range data.Successes("coap") {
			_ = r
			n++
		}
		return n
	}
	clean, lossy := count(0), count(0.6)
	if clean == 0 {
		t.Skip("no CoAP devices at this scale")
	}
	if lossy >= clean {
		t.Fatalf("CoAP successes did not degrade: %d vs %d", lossy, clean)
	}
}
