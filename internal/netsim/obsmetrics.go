package netsim

import "ntpscan/internal/obs"

// FaultMetrics counts fault-plan interventions on the fabric. Every
// underlying decision is a pure hash of (plan seed, flow identity,
// logical time) — see faults.go — so these totals are deterministic at
// any quiescent point regardless of worker interleaving.
type FaultMetrics struct {
	DialBlackholes *obs.Counter // TCP dials killed by an outage, injected latency, or burst SYN loss
	UDPDrops       *obs.Counter // datagrams swallowed by an outage, injected latency, or burst loss
	Garbles        *obs.Counter // connections wrapped / responses corrupted by a garble fault
}

// NewFaultMetrics registers the fabric's fault families on r.
func NewFaultMetrics(r *obs.Registry) *FaultMetrics {
	return &FaultMetrics{
		DialBlackholes: r.NewCounter("fault_dial_blackholes_total", "TCP dials blackholed by the fault plan"),
		UDPDrops:       r.NewCounter("fault_udp_drops_total", "UDP datagrams dropped by the fault plan"),
		Garbles:        r.NewCounter("fault_garbles_total", "exchanges corrupted by a garble fault"),
	}
}

// SetFaultMetrics attaches (or, with nil, detaches) fault counters to
// the fabric.
func (n *Network) SetFaultMetrics(m *FaultMetrics) {
	n.fm.Store(m)
}

func (n *Network) faultMetrics() *FaultMetrics { return n.fm.Load() }
