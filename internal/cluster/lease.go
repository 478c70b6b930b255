package cluster

import (
	"fmt"
	"sync"

	"ntpscan/internal/obs"
)

// lease is one shard's control-plane state: who holds it, under which
// fencing epoch, and through which slice the grant stays valid.
type lease struct {
	holder  int // node index, -1 unowned
	epoch   uint64
	expires int // grant valid while slice < expires
}

// leaseTable is the one lease table both control planes drive: the
// in-process Coordinator expires leases on a missed heartbeat, the
// standalone Fabric on its TTL sweep, and everything else — renewal,
// the fencing gate, epoch-bumping expiry and release, contiguous
// placement, epoch snapshot and restore — happens here, once. It
// counts into the owner's cluster_* metrics, so the task-conservation
// books balance on the same counters whichever driver moved them.
type leaseTable struct {
	ttl int
	met *metrics

	mu     sync.Mutex
	leases []lease
}

func newLeaseTable(shards, ttl int, met *metrics) *leaseTable {
	t := &leaseTable{ttl: ttl, met: met, leases: make([]lease, shards)}
	for i := range t.leases {
		// Epochs start at 1 so a zero value never passes the fence.
		t.leases[i] = lease{holder: -1, epoch: 1}
	}
	return t
}

// checkShard rejects a shard index outside the decomposition.
func (t *leaseTable) checkShard(shard int) error {
	if shard < 0 || shard >= len(t.leases) {
		return fmt.Errorf("cluster: shard %d %w", shard, ErrShardOutOfRange)
	}
	return nil
}

// renew re-grants every lease node holds, valid through slice+TTL.
func (t *leaseTable) renew(node, slice int) []Grant {
	t.mu.Lock()
	defer t.mu.Unlock()
	var grants []Grant
	for sh := range t.leases {
		l := &t.leases[sh]
		if l.holder != node {
			continue
		}
		l.expires = slice + t.ttl
		grants = append(grants, Grant{Shard: sh, Epoch: l.epoch, ExpiresSlice: l.expires})
	}
	t.met.granted.Add(int64(len(grants)))
	return grants
}

// submit is the fencing gate: a submission by the shard's current
// holder under its current epoch is accepted; anything else — a zombie
// node's work after its lease expired, a straggler from before a
// resume or a release — is rejected with ErrStaleEpoch.
func (t *leaseTable) submit(node, shard, slice int, epoch uint64) error {
	if err := t.checkShard(shard); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[shard]
	if l.holder != node || l.epoch != epoch {
		t.met.fenced.Inc()
		return fmt.Errorf("%w: shard %d slice %d epoch %d from node %d (current epoch %d, holder %d)",
			ErrStaleEpoch, shard, slice, epoch, node, l.epoch, l.holder)
	}
	t.met.completed.Inc()
	return nil
}

// fence frees every held lease drop selects: epoch bump (the fence),
// holder cleared, counted on c.
func (t *leaseTable) fence(c *obs.Counter, drop func(lease) bool) (freed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for sh := range t.leases {
		l := &t.leases[sh]
		if l.holder >= 0 && drop(*l) {
			l.holder = -1
			l.epoch++
			c.Inc()
			freed++
		}
	}
	return freed
}

// expire fences every lease node holds — the heartbeat driver's
// expiry on a missed heartbeat.
func (t *leaseTable) expire(node int) int {
	return t.fence(t.met.expired, func(l lease) bool { return l.holder == node })
}

// expireBy fences every lease not renewed past slice — the TTL
// driver's expiry.
func (t *leaseTable) expireBy(slice int) int {
	return t.fence(t.met.expired, func(l lease) bool { return l.expires <= slice })
}

// release hands node's leases back voluntarily. Epochs still advance,
// so any straggler submission under the released leases fences.
func (t *leaseTable) release(node int) int {
	return t.fence(t.met.released, func(l lease) bool { return l.holder == node })
}

// place assigns every unowned shard across live (node indices in
// ascending order) in contiguous runs — the deterministic placement
// rule — each grant valid through slice+TTL. Owned leases are never
// disturbed; with no live node the shards stay unowned.
func (t *leaseTable) place(live []int, slice int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var unowned []int
	for sh := range t.leases {
		if t.leases[sh].holder < 0 {
			unowned = append(unowned, sh)
		}
	}
	if len(unowned) == 0 || len(live) == 0 {
		return
	}
	for i, sh := range unowned {
		l := &t.leases[sh]
		l.holder = live[i*len(live)/len(unowned)]
		l.expires = slice + t.ttl
	}
}

// epochs snapshots the fencing epochs for a checkpoint.
func (t *leaseTable) epochs() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, len(t.leases))
	for i := range t.leases {
		out[i] = t.leases[i].epoch
	}
	return out
}

// restore continues the fencing epochs of an interrupted run with
// every lease unowned: stragglers fenced before the interruption stay
// fenced after it. The epoch count must match the decomposition.
func (t *leaseTable) restore(epochs []uint64) error {
	if len(epochs) != len(t.leases) {
		return fmt.Errorf("%w: checkpoint has %d epochs, pipeline has %d shards",
			ErrLeaseTableMismatch, len(epochs), len(t.leases))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range epochs {
		t.leases[i] = lease{holder: -1, epoch: e}
	}
	return nil
}
