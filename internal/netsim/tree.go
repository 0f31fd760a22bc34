package netsim

import (
	"fmt"

	"frieda/internal/sim"
)

// TreeSpec configures a two-tier rack/spine fat-tree. It is the datacenter
// counterpart of the flat host+Fabric model: hosts attach to top-of-rack
// (ToR) switches whose uplinks into the spine layer are oversubscribed by a
// configurable ratio — the dominant contention structure of real clusters,
// where intra-rack bandwidth is cheap and the rack uplink is the shared
// scarce resource.
type TreeSpec struct {
	// HostsPerRack is the rack radix (> 0). Hosts fill racks in attach
	// order; racks are assumed homogeneous, so ToR uplink capacity is
	// derived from the first host attached to each rack.
	HostsPerRack int
	// Spines is the number of spine switches (default 1). Inter-rack
	// paths are spread across spines by a deterministic hash of the rack
	// pair, so routing is reproducible across runs.
	Spines int
	// Oversubscription is the rack uplink ratio: each ToR's uplink (and
	// downlink) capacity is HostsPerRack × host-NIC-rate / Oversubscription.
	// 1 is a non-blocking fabric; 4 is a typical datacenter ratio.
	// Default 1.
	Oversubscription float64
	// SpineBps caps each spine switch's capacity. 0 means effectively
	// unconstrained (the spine layer never binds) — the degenerate
	// configuration that, together with 1:1 oversubscription, reproduces
	// the flat model's rates exactly.
	SpineBps float64
	// LatencySec, when > 0, is the per-switch-hop propagation delay added
	// to ToR and spine links. Host NIC latency stays with the host links.
	LatencySec float64
}

// unconstrainedBps stands in for an infinite-capacity spine link: large
// enough never to bind (no experiment provisions petabit NICs), small
// enough that share arithmetic stays far from float64 overflow.
const unconstrainedBps = 1e18

// validate fills defaults and rejects nonsense.
func (s *TreeSpec) validate() error {
	if s.HostsPerRack <= 0 {
		return fmt.Errorf("netsim: tree needs HostsPerRack > 0, got %d", s.HostsPerRack)
	}
	if s.Spines == 0 {
		s.Spines = 1
	}
	if s.Spines < 0 {
		return fmt.Errorf("netsim: tree needs Spines >= 1, got %d", s.Spines)
	}
	if s.Oversubscription == 0 {
		s.Oversubscription = 1
	}
	if s.Oversubscription < 0 {
		return fmt.Errorf("netsim: oversubscription ratio %v < 0", s.Oversubscription)
	}
	if s.SpineBps < 0 {
		return fmt.Errorf("netsim: spine capacity %v < 0", s.SpineBps)
	}
	if s.LatencySec < 0 {
		return fmt.Errorf("netsim: tree latency %v < 0", s.LatencySec)
	}
	return nil
}

// rack is one ToR switch: the aggregate uplink and downlink between its
// hosts and the spine layer.
type rack struct {
	up, down *Link
}

// Topology is a built fat-tree: it owns the ToR and spine links and answers
// routing queries. Build one with NewTree, attach hosts in provisioning
// order, and use Path (or cloud.Cluster.TransferPath, which delegates here)
// instead of the flat Path helper. Which rack a host sits in is recorded on
// the host (Host.tree, Host.rack).
type Topology struct {
	net      *Network
	spec     TreeSpec
	racks    []*rack
	spines   []*Link
	attached int // hosts attached so far; the next one fills slot attached
}

// NewTree creates an empty fat-tree on the network. Spine links are created
// eagerly (there are few); rack links are created as hosts fill racks.
func NewTree(n *Network, spec TreeSpec) (*Topology, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	t := &Topology{net: n, spec: spec}
	spineBps := spec.SpineBps
	if spineBps <= 0 {
		spineBps = unconstrainedBps
	}
	for i := 0; i < spec.Spines; i++ {
		l := n.NewLink(fmt.Sprintf("spine%d", i), spineBps)
		l.SetLatency(sim.Duration(spec.LatencySec))
		t.spines = append(t.spines, l)
	}
	return t, nil
}

// Attach places a host into the next free rack slot and returns its rack
// index. The first host of each rack fixes the rack's ToR capacity at
// HostsPerRack × that host's uplink rate / Oversubscription.
func (t *Topology) Attach(h *Host) int {
	if h.tree != nil {
		panic(fmt.Sprintf("netsim: host %q attached twice", h.Name()))
	}
	r := t.attached / t.spec.HostsPerRack
	if r == len(t.racks) {
		torBps := float64(t.spec.HostsPerRack) * h.Up().Capacity() / t.spec.Oversubscription
		up := t.net.NewLink(fmt.Sprintf("tor%d/up", r), torBps)
		down := t.net.NewLink(fmt.Sprintf("tor%d/down", r), torBps)
		up.SetLatency(sim.Duration(t.spec.LatencySec))
		down.SetLatency(sim.Duration(t.spec.LatencySec))
		t.racks = append(t.racks, &rack{up: up, down: down})
	}
	h.tree, h.rack = t, r
	t.attached++
	return r
}

// Racks returns how many racks have at least one host.
func (t *Topology) Racks() int { return len(t.racks) }

// RackOf returns the host's rack index, or -1 if the host was never
// attached.
func (t *Topology) RackOf(h *Host) int {
	if h.tree != t {
		return -1
	}
	return h.rack
}

// TorUp returns rack r's uplink into the spine layer.
func (t *Topology) TorUp(r int) *Link { return t.racks[r].up }

// TorDown returns rack r's downlink from the spine layer.
func (t *Topology) TorDown(r int) *Link { return t.racks[r].down }

// Spine returns spine switch i's link.
func (t *Topology) Spine(i int) *Link { return t.spines[i] }

// spineFor picks the spine carrying traffic from rack sr to rack dr. The
// hash is a pure function of the rack pair, so routing is deterministic and
// distinct destination racks from one source spread across spines (the ECMP
// behaviour that matters for a master staging to the whole cluster).
func (t *Topology) spineFor(sr, dr int) *Link {
	return t.spines[(sr*31+dr)%len(t.spines)]
}

// Path routes src → dst through the tree: intra-rack traffic crosses only
// the two host NICs (the ToR switching fabric is non-blocking for local
// ports), inter-rack traffic climbs the source ToR uplink, crosses one
// spine, and descends the destination ToR downlink. Both hosts must have
// been attached. Path panics on src == dst, as the flat helper does.
func (t *Topology) Path(src, dst *Host) []*Link {
	if src == dst {
		panic(fmt.Sprintf("netsim: path from host %q to itself", src.Name()))
	}
	sr, dr := t.RackOf(src), t.RackOf(dst)
	if sr < 0 {
		panic(fmt.Sprintf("netsim: host %q not attached to topology", src.Name()))
	}
	if dr < 0 {
		panic(fmt.Sprintf("netsim: host %q not attached to topology", dst.Name()))
	}
	if sr == dr {
		return []*Link{src.up, dst.down}
	}
	return []*Link{src.up, t.racks[sr].up, t.spineFor(sr, dr), t.racks[dr].down, dst.down}
}
