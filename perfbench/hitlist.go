package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/hitlist"
	"ntpscan/internal/zgrab"
)

// The hitlist is built and scanned on the campaign's world scale, over
// hitlistWorlds worlds per run.
const hitlistWorlds = 4

// runHitlist measures the batch hitlist scan the paper compares NTP
// sourcing against: BuildHitlist, the responsiveness filter of
// PublicHitlist, then ScanHitlist over the full list, on a freshly
// built pipeline with no collection and no sinks. Its unit operation
// is one PublicHitlist call: op_p50_ms is the median filter time over
// the run's repeats.
func runHitlist(e *env) (*outcome, error) {
	o := newOutcome()
	o.sizes["device_scale"] = campaignDeviceScale
	o.sizes["addr_scale"] = campaignAddrScale
	o.sizes["as_scale"] = campaignASScale
	o.sizes["worlds"] = hitlistWorlds
	o.sizes["workers"] = e.workers

	seeds := worldSeeds(e.seed, hitlistWorlds)
	refs := make([]worldRef, hitlistWorlds)
	var (
		st        repeatStats
		nsPerDial []float64
		filters   []float64
	)
	err := forRepeats(e, hitlistWorlds, func(i, w int, traced bool) (time.Duration, error) {
		r := hitlistRepeat(e, seeds[w], traced, &refs[w])
		o.op(r.err)
		wall := r.build + r.probe + r.scan
		st.add(r.setup, wall, r.results, r.peakMB, traced, r.rt0, r.rt1)
		filters = append(filters, ms(r.probe))
		if traced {
			nsPerDial = append(nsPerDial, ratio(float64(r.scan.Nanoseconds()), float64(r.scanDials)))
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	st.report(o, e, worldCounts(refs))
	o.e2e["op_p50_ms"] = o.tail("hitlist.filter_ms", filters).P50

	if e.trace {
		spans := e.tr.all()
		n := float64(len(st.wallTraced))
		o.layer["hitlist.build_s"] = totalMS(spans, "build") / n / 1e3
		o.layer["hitlist.probe_s"] = totalMS(spans, "public") / n / 1e3
		o.layer["hitlist.scan_s"] = totalMS(spans, "scan") / n / 1e3
		o.layer["netsim.ns_per_dial"] = median(nsPerDial)
	}
	return o, nil
}

type hitlistRun struct {
	setup, build, probe, scan time.Duration
	results                   int
	scanDials                 int64
	peakMB                    float64
	rt0, rt1                  rtSnap
	err                       error
}

func hitlistRepeat(e *env, seed uint64, traced bool, ref *worldRef) *hitlistRun {
	var tr *tracer
	if traced {
		tr = e.tr
	}
	ctx := context.Background()
	r := &hitlistRun{}
	heap := startHeapSampler(2 * time.Millisecond)
	t0 := time.Now()
	rep := tr.open(0, "harness", "repeat", t0)
	p := core.NewPipeline(campaignConfig(seed, e.workers))
	r.setup = time.Since(t0)
	tr.add(rep, "world", "setup", t0, t0.Add(r.setup))

	r.rt0 = readRuntime()
	t1 := time.Now()
	h := p.BuildHitlist(hitlist.Config{})
	t2 := time.Now()
	pub := p.PublicHitlist(ctx, h)
	t3 := time.Now()
	d0, _ := p.W.Fabric().Stats()
	ds := p.ScanHitlist(ctx, h)
	t4 := time.Now()
	d1, udp := p.W.Fabric().Stats()
	r.rt1 = readRuntime()
	r.peakMB = heap.Stop()
	tr.add(rep, "hitlist", "build", t1, t2)
	tr.add(rep, "hitlist", "public", t2, t3)
	tr.add(rep, "zgrab", "scan", t3, t4)
	r.build, r.probe, r.scan = t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	r.results, r.scanDials = len(ds.Results), d1-d0
	counts := pipelineCounts(p.Obs.Snapshot(), d1, udp)
	counts["hitlist.targets"], counts["hitlist.public"] = float64(len(h.Full)), float64(len(pub))

	checkStart := time.Now()
	digest, err := hitlistDigest(h.Full, pub, ds.Results)
	if ref.digest == "" && err == nil {
		ref.digest, ref.counts = digest, counts
	}
	if k, ok := sameCounts(ref.counts, counts); err == nil && !ok {
		err = fmt.Errorf("hitlist: registry count %q differs from the world's first repeat", k)
	}
	if err == nil && digest != ref.digest {
		err = fmt.Errorf("hitlist: dataset digest %s differs from the first repeat's %s", digest, ref.digest)
	}
	if err == nil && r.results == 0 {
		err = errors.New("hitlist: scan returned no results")
	}
	r.err = err
	tr.add(rep, "harness", "check", checkStart, time.Now())
	tr.close(rep, time.Now())
	return r
}

// hitlistDigest hashes the target list, the public list and the scan
// results. A result's envelope is hashed field by field; a result that
// carries a grab is hashed as its JSON line.
func hitlistDigest(full, pub []netip.Addr, results []*zgrab.Result) (string, error) {
	h := sha256.New()
	var b []byte
	for _, list := range [][]netip.Addr{full, pub} {
		b = binary.AppendUvarint(b[:0], uint64(len(list)))
		for _, a := range list {
			b = append(b, a.AsSlice()...)
		}
		h.Write(b)
	}
	for _, r := range results {
		if r.HTTP != nil || r.TLS != nil || r.SSH != nil || r.MQTT != nil || r.AMQP != nil || r.CoAP != nil {
			line, err := json.Marshal(r)
			if err != nil {
				return "", err
			}
			h.Write(line)
			continue
		}
		ip := r.IP.As16()
		b = append(b[:0], ip[:]...)
		b = append(b, r.Module...)
		b = append(b, 0)
		b = append(b, r.Status...)
		b = append(b, 0)
		b = append(b, r.Error...)
		b = append(b, 0)
		b = binary.AppendUvarint(b, uint64(r.Port))
		b = binary.AppendUvarint(b, uint64(r.Attempts))
		b = binary.AppendVarint(b, r.Time.UnixNano())
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
