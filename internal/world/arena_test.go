package world

import (
	"testing"
	"time"

	"ntpscan/internal/rng"
)

// sameDevice asserts field-identity between two derivations of the
// same device ID.
func sameDevice(t *testing.T, w *World, a, b *Device) {
	t.Helper()
	if a.ID != b.ID || a.Profile.Name != b.Profile.Name || a.Country != b.Country ||
		a.AS.Number != b.AS.Number || a.role != b.role {
		t.Fatalf("device %d placement differs: %+v vs %+v", a.ID, a, b)
	}
	if a.MAC != b.MAC || a.HasMAC != b.HasMAC {
		t.Fatalf("device %d MAC differs: %v/%v vs %v/%v", a.ID, a.MAC, a.HasMAC, b.MAC, b.HasMAC)
	}
	if a.TLSEnabled != b.TLSEnabled || a.AuthOn != b.AuthOn || a.PatchRev != b.PatchRev ||
		a.CertSerial != b.CertSerial || a.KeyID != b.KeyID || a.KeySlot != b.KeySlot {
		t.Fatalf("device %d identity differs", a.ID)
	}
	if a.epochLen != b.epochLen || a.phase != b.phase {
		t.Fatalf("device %d churn params differ", a.ID)
	}
	for _, epoch := range []int64{0, 1, 7} {
		if ea, eb := w.AddrAt(a, epoch), w.AddrAt(b, epoch); ea != eb {
			t.Fatalf("device %d epoch %d address differs: %v vs %v", a.ID, epoch, ea, eb)
		}
	}
}

// TestArenaMatchesFreshDerivation is the golden walk: every ID of the
// SCALE=1 world — every country, AS, and /48 it occupies — resolved
// through a deliberately tiny arena must be field-identical to a
// freshly derived device. Every lookup recycles a slot another device
// last occupied and left churn state in, so a field materializeInto
// forgets to rewrite surfaces here.
func TestArenaMatchesFreshDerivation(t *testing.T) {
	w := New(testCfg(1))
	m := w.NewMaterializer(3 * slotBytes)
	var r rng.Stream
	for gid := int32(0); gid < int32(w.DeviceCount()); gid++ {
		got := m.Device(gid)
		want := &Device{}
		w.materializeInto(gid, want, &r)
		sameDevice(t, w, want, got)
		if got.lastEpoch != -1 || got.lastAddr.IsValid() || got.host != nil {
			t.Fatalf("device %d inherited slot state: epoch %d addr %v", gid, got.lastEpoch, got.lastAddr)
		}
		// Dirty the slot's churn state before it is recycled.
		w.CurrentAddr(got, w.Cfg.Start.Add(CollectionWindow-time.Hour))
	}
	if st := m.TakeStats(); st.Evictions == 0 {
		t.Fatalf("walk of %d devices never recycled a slot: %+v", w.DeviceCount(), st)
	}

	// The resident reachable population is the same derivation, plus
	// fabric state.
	for _, d := range w.Reachable() {
		want := &Device{}
		w.materializeInto(int32(d.ID), want, &r)
		sameDevice(t, w, want, d)
	}
}

// TestArenaHitPathAllocates pins the arena hit path at zero
// allocations: resolving a resident device must not touch the heap.
func TestArenaHitPathAllocates(t *testing.T) {
	w := New(testCfg(1))
	m := w.NewMaterializer(1 << 16)
	gid := w.SampleClientID("IN", rng.New(1))
	if gid < 0 {
		t.Fatal("no client to sample")
	}
	m.Device(gid)
	if avg := testing.AllocsPerRun(200, func() { m.Device(gid) }); avg != 0 {
		t.Fatalf("arena hit path allocates %.1f objects per lookup", avg)
	}
}

// TestArenaEviction drives a one-slot arena and checks the conservation
// law the obs invariants rely on: materializations - evictions ==
// resident devices, and hits + materializations == lookups.
func TestArenaEviction(t *testing.T) {
	w := New(testCfg(1))
	m := w.NewMaterializer(1) // clamps to one slot
	if m.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", m.Capacity())
	}
	a := m.Device(0)
	if a.ID != 0 {
		t.Fatalf("materialized device %d, want 0", a.ID)
	}
	m.Device(0) // hit
	b := m.Device(1)
	if b.ID != 1 {
		t.Fatalf("materialized device %d, want 1", b.ID)
	}
	st := m.TakeStats()
	if st.Materializations != 2 || st.Hits != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 materializations, 1 hit, 1 eviction", st)
	}
	if m.ResidentBytes() != slotBytes {
		t.Fatalf("resident bytes = %d, want %d", m.ResidentBytes(), slotBytes)
	}
	if got := m.TakeStats(); got != (ArenaStats{}) {
		t.Fatalf("TakeStats did not reset: %+v", got)
	}
}

// TestArenaSnapshotRestore: a restored arena must continue the exact
// hit/miss/eviction sequence the original would have produced.
func TestArenaSnapshotRestore(t *testing.T) {
	w := New(testCfg(1))
	ids := w.clientIDs["IN"]
	if len(ids) < 8 {
		t.Fatalf("too few IN clients: %d", len(ids))
	}
	budget := 4 * slotBytes

	drive := func(m *Materializer, seq []int32) ArenaStats {
		var total ArenaStats
		for _, gid := range seq {
			m.Device(gid)
			s := m.TakeStats()
			total.Materializations += s.Materializations
			total.Hits += s.Hits
			total.Evictions += s.Evictions
		}
		return total
	}

	warm := []int32{ids[0], ids[1], ids[2], ids[3], ids[1], ids[4]}
	tail := []int32{ids[5], ids[1], ids[6], ids[2], ids[7], ids[0], ids[1]}

	// Uninterrupted run.
	full := w.NewMaterializer(budget)
	drive(full, warm)
	wantTail := drive(full, tail)

	// Snapshot after the warmup, restore into a fresh arena, replay.
	orig := w.NewMaterializer(budget)
	drive(orig, warm)
	snap := orig.Snapshot()
	resumed := w.NewMaterializer(budget)
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if gotTail := drive(resumed, tail); gotTail != wantTail {
		t.Fatalf("resumed tail stats %+v, want %+v", gotTail, wantTail)
	}

	// Capacity mismatch is rejected, not silently misread.
	if err := w.NewMaterializer(budget * 2).Restore(snap); err == nil {
		t.Fatal("restore across a different byte budget succeeded")
	}
}
