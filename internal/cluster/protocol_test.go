package cluster

import (
	"errors"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/core"
	"ntpscan/internal/obs"
)

// White-box protocol unit tests: the lease table's fencing and
// placement rules, checked directly against the one table both the
// Coordinator and the Fabric drive, without a campaign around them.

func testTable(shards int) *leaseTable {
	return newLeaseTable(shards, 2, newMetrics(obs.NewRegistry(), 4))
}

func TestSubmitSliceFencesStaleEpochs(t *testing.T) {
	tb := testTable(32)
	tb.leases[0] = lease{holder: 1, epoch: 5, expires: 2}

	if err := tb.submit(1, 0, 0, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("stale epoch: err = %v, want ErrStaleEpoch", err)
	}
	if err := tb.submit(2, 0, 0, 5); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("right epoch, wrong holder: err = %v, want ErrStaleEpoch", err)
	}
	if err := tb.submit(1, 0, 0, 5); err != nil {
		t.Errorf("current holder, current epoch: err = %v, want nil", err)
	}
	err := tb.submit(1, 99, 0, 5)
	if !errors.Is(err, ErrShardOutOfRange) || errors.Is(err, ErrStaleEpoch) {
		t.Errorf("out-of-range shard: err = %v, want ErrShardOutOfRange", err)
	}
	if err != nil && err.Error() != "cluster: shard 99 out of range" {
		t.Errorf("out-of-range text = %q", err)
	}
	if got := tb.met.fenced.Value(); got != 2 {
		t.Errorf("epoch rejections = %d, want 2", got)
	}
	if got := tb.met.completed.Value(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

func TestExpireAndReleaseAdvanceEpochs(t *testing.T) {
	tb := testTable(32)
	tb.leases[0] = lease{holder: 0, epoch: 3}
	tb.leases[1] = lease{holder: 0, epoch: 7}
	tb.leases[2] = lease{holder: 1, epoch: 1}
	tb.leases[3] = lease{holder: 2, epoch: 4, expires: 5}
	tb.leases[4] = lease{holder: 2, epoch: 4, expires: 6}

	if freed := tb.expire(0); freed != 2 {
		t.Fatalf("expired %d leases, want 2", freed)
	}
	if tb.leases[0] != (lease{holder: -1, epoch: 4}) || tb.leases[1] != (lease{holder: -1, epoch: 8}) {
		t.Errorf("expiry did not fence: %+v %+v", tb.leases[0], tb.leases[1])
	}
	if tb.leases[2].holder != 1 {
		t.Error("expiry touched another node's lease")
	}

	// TTL expiry fences exactly the held leases not renewed past the
	// slice; unowned leases keep their epoch.
	if freed := tb.expireBy(5); freed != 2 {
		t.Fatalf("TTL expiry freed %d leases, want 2 (node 1's expires-0 and shard 3)", freed)
	}
	if tb.leases[3] != (lease{holder: -1, epoch: 5, expires: 5}) || tb.leases[4].holder != 2 {
		t.Errorf("TTL expiry fenced the wrong leases: %+v %+v", tb.leases[3], tb.leases[4])
	}
	if tb.leases[0].epoch != 4 {
		t.Errorf("TTL expiry bumped an unowned lease: %+v", tb.leases[0])
	}
	if got := tb.met.expired.Value(); got != 4 {
		t.Errorf("expired counter = %d, want 4", got)
	}

	if freed := tb.release(2); freed != 1 {
		t.Fatalf("released %d leases, want 1", freed)
	}
	if tb.leases[4] != (lease{holder: -1, epoch: 5, expires: 6}) {
		t.Errorf("release did not fence: %+v", tb.leases[4])
	}
	// A straggler submission under the released epoch fences.
	if err := tb.submit(2, 4, 0, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("post-release submission: err = %v, want ErrStaleEpoch", err)
	}
}

// Placement must be the deterministic rule the determinism argument
// leans on: contiguous runs of shards over live nodes in node order,
// every unowned shard placed, no owned lease disturbed.
func TestRebalanceContiguousOverLiveNodes(t *testing.T) {
	tb := testTable(32)
	tb.leases[5] = lease{holder: 2, epoch: 9, expires: 1}

	tb.place([]int{0, 2, 3}, 3) // node 1 dead

	if tb.leases[5] != (lease{holder: 2, epoch: 9, expires: 1}) {
		t.Errorf("placement disturbed an owned lease: %+v", tb.leases[5])
	}
	prev := -1
	counts := map[int]int{}
	for sh, l := range tb.leases {
		if l.holder < 0 {
			t.Fatalf("shard %d left unowned", sh)
		}
		if l.holder == 1 {
			t.Fatalf("shard %d assigned to a dead node", sh)
		}
		if sh == 5 {
			continue
		}
		if l.holder < prev {
			t.Fatalf("placement not contiguous in node order: shard %d holder %d after %d", sh, l.holder, prev)
		}
		prev = l.holder
		counts[l.holder]++
		if l.expires != 3+tb.ttl {
			t.Fatalf("shard %d expires at %d, want %d", sh, l.expires, 3+tb.ttl)
		}
	}
	for _, n := range []int{0, 2, 3} {
		if counts[n] == 0 {
			t.Errorf("live node %d received no shards", n)
		}
	}

	// With no live node the shards stay unowned.
	empty := testTable(4)
	empty.place(nil, 0)
	for sh, l := range empty.leases {
		if l.holder != -1 {
			t.Errorf("shard %d placed with no live node: %+v", sh, l)
		}
	}
}

func TestHeartbeatRenewsLeases(t *testing.T) {
	c := testCoordinator(t, 2)
	c.leases.leases[4] = lease{holder: 1, epoch: 2, expires: 1}
	grants, err := c.Heartbeat(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || grants[0] != (Grant{Shard: 4, Epoch: 2, ExpiresSlice: 6 + c.cfg.LeaseTTL}) {
		t.Fatalf("grants = %+v", grants)
	}
	if c.leases.leases[4].expires != 6+c.cfg.LeaseTTL {
		t.Errorf("lease expiry not renewed: %+v", c.leases.leases[4])
	}
	if got := c.met.granted.Value(); got != 1 {
		t.Errorf("granted counter = %d, want 1", got)
	}
}

func TestEpochsStartAtOne(t *testing.T) {
	c := testCoordinator(t, 1)
	for sh, e := range c.leases.epochs() {
		if e != 1 {
			t.Fatalf("shard %d epoch %d, want 1 (zero must never pass the fence)", sh, e)
		}
	}
	// Restore keeps the epochs and frees every lease; a wrong-length
	// epoch list is a decomposition mismatch.
	tb := testTable(3)
	tb.leases[1] = lease{holder: 0, epoch: 2, expires: 9}
	if err := tb.restore([]uint64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if tb.leases[1] != (lease{holder: -1, epoch: 5}) {
		t.Errorf("restored lease = %+v", tb.leases[1])
	}
	if err := tb.restore([]uint64{1}); !errors.Is(err, ErrLeaseTableMismatch) {
		t.Errorf("short epoch list: err = %v, want ErrLeaseTableMismatch", err)
	}
}

func testCoordinator(t *testing.T, nodes int) *Coordinator {
	t.Helper()
	p := core.NewPipeline(chaos.Config(11))
	c, err := NewCoordinator(p, Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
