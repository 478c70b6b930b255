package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/obs"
)

// Coordinator owns the campaign's control plane: node liveness on the
// heartbeat clock, the slice dispatcher, and the cluster section of the
// campaign checkpoint. Leases, fencing and placement are the shared
// leaseTable's; the Coordinator decides only when they move — a missed
// heartbeat expires a node's leases at once. It implements API and
// plugs into the campaign as its slice dispatcher.
//
// Every control decision is a pure function of (fault plan, slice,
// node index): heartbeat outcomes come from the plan's node faults on
// the logical clock, expiry and reassignment follow deterministically,
// and execution concurrency never feeds back into the protocol — so a
// clustered campaign is exactly as replayable as a single-process one.
type Coordinator struct {
	p   *core.Pipeline
	cfg Config

	// Obs is the cluster's own metrics registry — separate from the
	// pipeline's, so campaign telemetry stays byte-identical across
	// node counts while lease/heartbeat/fencing families remain fully
	// observable (and ride the checkpoint's cluster section).
	Obs *obs.Registry
	met *metrics

	leases *leaseTable

	mu    sync.Mutex // seen and views, written by API calls
	live  []bool
	seen  []bool    // node has claimed at least once (Claim vs Heartbeat)
	views [][]Grant // each node's last-received grant list (its lease belief)

	apis []API // per-node control handles (fault seam over Dial or self)
}

// NewCoordinator builds the control plane for a pipeline. The
// pipeline must not have started a campaign yet.
func NewCoordinator(p *core.Pipeline, cfg Config) (*Coordinator, error) {
	cfg.fillDefaults(p.Cfg.Workers)
	c := &Coordinator{
		p:     p,
		cfg:   cfg,
		Obs:   obs.NewRegistry(),
		live:  make([]bool, cfg.Nodes),
		seen:  make([]bool, cfg.Nodes),
		views: make([][]Grant, cfg.Nodes),
	}
	c.met = newMetrics(c.Obs, cfg.Nodes)
	c.leases = newLeaseTable(p.Cfg.CollectShards, cfg.LeaseTTL, c.met)
	return c, nil
}

// Nodes returns the configured node count.
func (c *Coordinator) Nodes() int { return c.cfg.Nodes }

// SetDial installs the node→coordinator control path after
// construction. The transport wiring order needs this: build the
// coordinator, serve its API on a listener, then point each node's
// dial back at that endpoint. Must be called before the campaign
// starts; it resets any handles built under the previous dial.
func (c *Coordinator) SetDial(d func(node int) API) {
	c.cfg.Dial = d
	c.apis = nil
}

// handles builds (once) the per-node control handles the dispatcher
// calls through: the configured dial — or the coordinator's own
// methods — wrapped in the wire-fault seam, so a node's crash,
// partition, or heartbeat delay manifests as transport behavior
// identically whether the base is an in-process call or a socket.
func (c *Coordinator) handles() []API {
	if c.apis != nil {
		return c.apis
	}
	plan := c.p.Cfg.Faults
	c.apis = make([]API, c.cfg.Nodes)
	for n := range c.apis {
		base := API(c)
		if c.cfg.Dial != nil {
			base = c.cfg.Dial(n)
		}
		w := NewNodeWire(base, n, plan, c.p.SliceWindow, c.cfg.HeartbeatGrace)
		w.onFault = func(k WireFaultKind) { c.met.wireFaults.Inc(int(k)) }
		w.onDelay = func(d time.Duration) { c.met.hbDelay.Observe(d.Milliseconds()) }
		c.apis[n] = w
	}
	return c.apis
}

// EpochRejections returns the fencing counter — submissions rejected
// for carrying a stale lease epoch.
func (c *Coordinator) EpochRejections() int64 { return c.met.fenced.Value() }

// TaskCounts returns the task-conservation counters
// (claimed, completed, fenced, lost).
func (c *Coordinator) TaskCounts() (claimed, completed, fenced, lost int64) {
	return c.met.claimed.Value(), c.met.completed.Value(),
		c.met.fenced.Value(), c.met.lost.Value()
}

// campaignOpts wires the coordinator into campaign options: it becomes
// the slice dispatcher, and checkpoints grow the cluster section
// (lease epochs + cluster registry) before reaching the caller.
func (c *Coordinator) campaignOpts(opts core.CampaignOpts) core.CampaignOpts {
	opts.Dispatch = c.dispatch
	user := opts.OnCheckpoint
	if user != nil {
		opts.OnCheckpoint = func(cp *core.Checkpoint) {
			cp.Cluster = c.state()
			user(cp)
		}
	}
	return opts
}

// state snapshots the coordinator's checkpoint section.
func (c *Coordinator) state() *core.ClusterState {
	return &core.ClusterState{Epochs: c.leases.epochs(), Obs: c.Obs.Snapshot()}
}

// restore validates and applies a checkpoint's cluster section: the
// fencing epochs continue from the interrupted run, and the cluster
// registry resumes its counter sequence.
func (c *Coordinator) restore(cp *core.Checkpoint) error {
	if cp.Cluster == nil {
		return fmt.Errorf("%w: checkpoint carries no cluster section", ErrLeaseTableMismatch)
	}
	if err := c.leases.restore(cp.Cluster.Epochs); err != nil {
		return err
	}
	c.Obs.Restore(cp.Cluster.Obs)
	return nil
}

// Claim implements API: first contact (or rejoin after a crash). The
// node's stale lease belief is discarded and replaced with its current
// grants.
func (c *Coordinator) Claim(node, slice int) ([]Grant, error) {
	if err := c.cfg.checkNode(node); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.seen[node] = true
	c.mu.Unlock()
	return c.leases.renew(node, slice), nil
}

// Heartbeat implements API: renews the node's leases and returns them
// with a fresh expiry.
func (c *Coordinator) Heartbeat(node, slice int) ([]Grant, error) {
	if err := c.cfg.checkNode(node); err != nil {
		return nil, err
	}
	return c.leases.renew(node, slice), nil
}

// SubmitSlice implements API: the lease table's fencing gate. A
// rejected submission must be rolled back by the caller. Either way
// the task leaves flight.
func (c *Coordinator) SubmitSlice(node, shard, slice int, epoch uint64) error {
	if err := c.cfg.checkNode(node); err != nil {
		return err
	}
	err := c.leases.submit(node, shard, slice, epoch)
	if !errors.Is(err, ErrShardOutOfRange) {
		c.met.inflight.Add(-1)
	}
	return err
}

// Release implements API: voluntary lease handover.
func (c *Coordinator) Release(node int) error {
	if err := c.cfg.checkNode(node); err != nil {
		return err
	}
	c.leases.release(node)
	c.mu.Lock()
	c.views[node] = nil
	c.mu.Unlock()
	return nil
}

// liveNodes lists the nodes whose last heartbeat arrived, in node
// order — the placement candidates.
func (c *Coordinator) liveNodes() []int {
	var live []int
	for n, ok := range c.live {
		if ok {
			live = append(live, n)
		}
	}
	return live
}
