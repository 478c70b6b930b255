package core

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/analysis"
	"ntpscan/internal/hitlist"
	"ntpscan/internal/netsim"
	"ntpscan/internal/ntp"
	"ntpscan/internal/world"
)

func testConfig(seed uint64) Config {
	return Config{
		Seed: seed,
		World: world.Config{
			DeviceScale: 1e-3,
			AddrScale:   1e-6,
			ASScale:     0.02,
		},
		Workers: 16,
	}
}

func TestDeployment(t *testing.T) {
	p := NewPipeline(testConfig(1))
	if len(p.Servers) != 11 {
		t.Fatalf("deployed %d servers, want 11 (one per vantage country)", len(p.Servers))
	}
	seen := map[string]bool{}
	for _, s := range p.Servers {
		if seen[s.Country] {
			t.Fatalf("duplicate vantage in %s", s.Country)
		}
		seen[s.Country] = true
		if _, ok := p.W.Fabric().HostAt(s.Addr); !ok {
			t.Fatalf("server %s not on fabric", s.ID)
		}
		share := p.Pool.ShareEstimate(s.Country)
		if share < p.Cfg.TargetShare*0.9 {
			t.Fatalf("%s share = %v, controller failed", s.Country, share)
		}
	}
}

func TestCollectProducesAddresses(t *testing.T) {
	p := NewPipeline(testConfig(1))
	p.CollectOnly()
	if p.Summary.Set().Len() == 0 {
		t.Fatal("no addresses collected")
	}
	if p.Captures < p.Summary.Set().Len() {
		t.Fatal("captures < distinct addresses")
	}
	st := p.Summary.Stats()
	if st.Nets48 == 0 || st.ASes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// India must dominate the per-country capture distribution
	// (Table 7 shape).
	per := p.PerCountrySorted()
	if len(per) == 0 || per[0].Country != "IN" {
		t.Fatalf("top country = %+v", per)
	}
	last := per[len(per)-1]
	if per[0].Addrs < 5*last.Addrs {
		t.Fatalf("India (%d) should dwarf %s (%d)", per[0].Addrs, last.Country, last.Addrs)
	}
}

func TestCollectDeterministic(t *testing.T) {
	a, b := NewPipeline(testConfig(7)), NewPipeline(testConfig(7))
	a.CollectOnly()
	b.CollectOnly()
	if a.Summary.Set().Len() != b.Summary.Set().Len() || a.Captures != b.Captures {
		t.Fatalf("runs differ: %d/%d vs %d/%d",
			a.Summary.Set().Len(), a.Captures, b.Summary.Set().Len(), b.Captures)
	}
}

func TestCollectFeedSeesEveryCapture(t *testing.T) {
	p := NewPipeline(testConfig(1))
	n := 0
	p.Collect(func(a netip.Addr) {
		if !a.IsValid() {
			t.Error("invalid address in feed")
		}
		n++
	})
	if n != p.Captures {
		t.Fatalf("feed saw %d of %d captures", n, p.Captures)
	}
}

// TestFullPacketEquivalence holds the shard codec fast path to the
// full UDP exchange it stands in for. On a sample of flows spread over
// the collection window, captureVia and ntp.QuerySim to the vantage
// server registered on the fabric must agree on every capture event
// (client address, vantage) and return the same response packet.
func TestFullPacketEquivalence(t *testing.T) {
	p := NewPipeline(testConfig(3))
	fabric, clock := p.W.Fabric(), p.W.Clock()
	sh := p.makeCollectShards()[0]

	// The fabric's side of the exchange: every request that reaches a
	// vantage server, i.e. the capture events of the UDP path.
	var sniffed []netsim.PacketInfo
	for _, vs := range p.Servers {
		cancel := fabric.Sniff(netip.PrefixFrom(vs.Addr, 128), func(pi netsim.PacketInfo) {
			if pi.Proto == "udp" && pi.Dst.Port() == ntp.Port {
				sniffed = append(sniffed, pi)
			}
		})
		defer cancel()
	}
	vantageAt := func(a netip.Addr) int {
		for _, vs := range p.Servers {
			if vs.Addr == a {
				return vs.idx
			}
		}
		return -1
	}

	flows := 0
	for i := 0; i < 4*collectSlices; i++ {
		if st := p.sliceTime(i / 4); st.After(clock.Now()) {
			clock.Set(st)
		}
		vs := p.Servers[i%len(p.Servers)]
		gid := p.W.SampleClientID(vs.Country, sh.vol)
		if gid < 0 {
			continue
		}
		client := p.W.CurrentAddr(sh.arena.Device(gid), clock.Now())
		// Replay captureVia's source-port draw for the UDP exchange.
		st := sh.ports.State()
		port := 40000 + uint16(sh.ports.Intn(20000))
		sh.ports.SetState(st)

		sh.events = sh.events[:0]
		if err := p.captureVia(sh, vs, client); err != nil {
			t.Fatalf("flow %d: fast path: %v", i, err)
		}
		fast, err := ntp.Decode(sh.respBuf)
		if err != nil {
			t.Fatalf("flow %d: fast-path response: %v", i, err)
		}

		sniffed = sniffed[:0]
		res, err := ntp.QuerySim(fabric, netip.AddrPortFrom(client, port),
			netip.AddrPortFrom(vs.Addr, ntp.Port), clock.Now, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("flow %d: full exchange: %v", i, err)
		}

		if len(sh.events) != 1 || len(sniffed) != 1 {
			t.Fatalf("flow %d: %d fast-path captures vs %d requests on the fabric, want 1 each",
				i, len(sh.events), len(sniffed))
		}
		ev, pkt := sh.events[0], sniffed[0]
		if ev.addr != client || pkt.Src != netip.AddrPortFrom(client, port) {
			t.Fatalf("flow %d: captured %v, fabric saw %v, want %v", i, ev.addr, pkt.Src, client)
		}
		if int(ev.vantage) != vs.idx || vantageAt(pkt.Dst.Addr()) != vs.idx {
			t.Fatalf("flow %d: vantage %d vs fabric %v, want %d", i, ev.vantage, pkt.Dst, vs.idx)
		}
		if *fast != *res.Response {
			t.Fatalf("flow %d: responses differ:\n fast %+v\n full %+v", i, *fast, *res.Response)
		}
		flows++
	}
	if flows < collectSlices {
		t.Fatalf("only %d of %d sampled flows had a client", flows, 4*collectSlices)
	}
}

func TestNTPCampaignFindsConsumerDevices(t *testing.T) {
	p := NewPipeline(testConfig(1))
	data := p.RunNTPCampaign(context.Background())
	if len(data.Results) == 0 {
		t.Fatal("no scan results")
	}
	groups := analysis.TitleGroups(data)
	fritz := analysis.FindGroup(groups, "FRITZ!Box")
	if fritz == nil || fritz.Certs == 0 {
		t.Fatalf("no FRITZ!Box devices found via NTP; groups = %+v", groups)
	}
	// The responsive population is guaranteed captured: every
	// responsive HTTPS fritzbox should be found.
	rows := analysis.Table2(data)
	if rows[0].CertsKeys < fritz.Certs {
		t.Fatalf("table2 inconsistent: %+v vs fritz %d", rows[0], fritz.Certs)
	}
}

func TestHitRateIsLow(t *testing.T) {
	p := NewPipeline(testConfig(1))
	data := p.RunNTPCampaign(context.Background())
	_, _, rate := analysis.HitRate(analysis.NewDataset("ntp", data.Results))
	// Most captured addresses are firewalled phones: the hit rate must
	// be far below one half (the paper's is 0.42 permille at full
	// scale; scale compression raises ours).
	if rate > 0.5 {
		t.Fatalf("hit rate %v implausibly high", rate)
	}
	if rate == 0 {
		t.Fatal("nothing responsive at all")
	}
}

func TestHitlistPipeline(t *testing.T) {
	p := NewPipeline(testConfig(1))
	p.CollectOnly()
	h := p.BuildHitlist(hitlist.Config{})
	if h.Len() == 0 {
		t.Fatal("empty hitlist")
	}
	ctx := context.Background()
	data := p.ScanHitlist(ctx, h)
	groups := analysis.TitleGroups(data)
	if g := analysis.FindGroup(groups, "D-LINK"); g == nil {
		t.Fatalf("hitlist scan missed D-LINK infrastructure; groups = %+v", groups)
	}
	pub := p.PublicHitlist(ctx, h)
	if len(pub) == 0 || len(pub) >= h.Len() {
		t.Fatalf("public list = %d of %d", len(pub), h.Len())
	}
	fullSum := p.SummarizeHitlist(h.Full)
	pubSum := p.SummarizeHitlist(pub)
	if fullSum.Stats().ASes < pubSum.Stats().ASes {
		t.Fatal("full hitlist should cover at least as many ASes")
	}
}

func TestRLCollect(t *testing.T) {
	p := NewPipeline(testConfig(1))
	p.CollectOnly()
	rl := p.RLCollect(0)
	if rl.Set().Len() == 0 {
		t.Fatal("R&L run empty")
	}
	// Partial /48 overlap with our run: some but not all.
	overlap := p.Summary.Per48().OverlapWith(rl.Per48())
	if overlap == 0 {
		t.Fatal("no /48 overlap with R&L era")
	}
	if overlap == p.Summary.Per48().Len() {
		t.Fatal("complete /48 overlap is implausible across eras")
	}
}

func TestSecureShareGap(t *testing.T) {
	// The headline: NTP-sourced hosts are less securely configured
	// than hitlist-found hosts.
	cfg := testConfig(2)
	cfg.World.DeviceScale = 3e-3
	p := NewPipeline(cfg)
	ctx := context.Background()
	ntpData := p.RunNTPCampaign(ctx)
	h := p.BuildHitlist(hitlist.Config{})
	hitData := p.ScanHitlist(ctx, h)
	shares := analysis.SecureShares(ntpData, hitData)
	if shares[0].Hosts == 0 || shares[1].Hosts == 0 {
		t.Fatalf("empty host sets: %+v", shares)
	}
	if shares[0].Share() >= shares[1].Share() {
		t.Fatalf("NTP share %.3f should be below hitlist share %.3f",
			shares[0].Share(), shares[1].Share())
	}
}
