package core

import (
	"context"
	"net/netip"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/netsim"
	"ntpscan/internal/world"
)

// Failure injection: the pipeline must behave sensibly on a lossy
// fabric — degraded scans, never hangs or crashes. Loss is one
// FaultLoss over ::/0 for the collection window. Captures ride the
// shard codec path, which consults only outages and links, so only the
// scan side loses packets.

func lossyPipeline(seed uint64, loss float64) *Pipeline {
	p := NewPipeline(testConfig(seed))
	start := p.W.Cfg.Start
	plan := &netsim.FaultPlan{Seed: seed}
	plan.Add(netsim.Fault{
		Kind: netsim.FaultLoss, Prefix: netip.MustParsePrefix("::/0"), Prob: loss,
		From: start, Until: start.Add(world.CollectionWindow),
	})
	p.InstallFaults(plan)
	return p
}

func TestLossyScanStillFindsDevices(t *testing.T) {
	p := lossyPipeline(6, 0.3)
	data := p.RunNTPCampaign(context.Background())
	resp, _, _ := analysis.HitRate(data)
	if resp == 0 {
		t.Fatal("nothing found through a 30% lossy fabric")
	}
	// Burst loss drops TCP SYNs too, but the FRITZ!Box population is
	// large enough that HTTP findings survive it.
	groups := analysis.TitleGroups(data)
	if analysis.FindGroup(groups, "FRITZ!Box") == nil {
		t.Fatal("TCP findings lost under 30% loss")
	}
}

func TestCoAPDegradesUnderLoss(t *testing.T) {
	count := func(loss float64) int {
		data := lossyPipeline(7, loss).RunNTPCampaign(context.Background())
		return len(data.Successes("coap"))
	}
	clean, lossy := count(0), count(0.6)
	if clean == 0 {
		t.Skip("no CoAP devices at this scale")
	}
	if lossy >= clean {
		t.Fatalf("CoAP successes did not degrade: %d vs %d", lossy, clean)
	}
}
