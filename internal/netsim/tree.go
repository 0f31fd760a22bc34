package netsim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

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
// order, and use Path or AppendPath (or cloud.Cluster.AppendTransferPath,
// which delegates here) instead of the flat helpers. Which rack a host sits
// in is recorded on the host (Host.tree, Host.rack).
type Topology struct {
	net      *Network
	spec     TreeSpec
	racks    []rack
	spines   []*Link
	attached int // hosts attached so far; the next one fills slot attached
}

// NewTree creates an empty fat-tree on the network. Spine links are created
// eagerly (there are few); rack links are created as hosts fill racks, one
// slab per Attach or AttachHosts call that opens racks.
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
	t.openRacks(t.attached+1, func(int) float64 { return h.up.capacity })
	return t.place(h)
}

// AttachHosts attaches a batch of hosts in order, exactly as Attach would one
// at a time; the racks the batch opens get their ToR links, and those links'
// names, from one allocation each.
func (t *Topology) AttachHosts(hosts []Host) {
	first := t.attached
	t.openRacks(first+len(hosts), func(slot int) float64 { return hosts[slot-first].up.capacity })
	for i := range hosts {
		t.place(&hosts[i])
	}
}

// place puts h into the next free slot, whose rack must be open.
func (t *Topology) place(h *Host) int {
	if h.tree != nil {
		panic(fmt.Sprintf("netsim: host %q attached twice", h.Name()))
	}
	r := t.attached / t.spec.HostsPerRack
	h.tree, h.rack = t, r
	t.attached++
	return r
}

// openRacks opens every rack up to the one holding slot hosts-1. Rack r's ToR
// capacity is HostsPerRack × upBps(its first slot) / Oversubscription, where
// upBps gives the uplink rate of the host about to fill a slot.
func (t *Topology) openRacks(hosts int, upBps func(slot int) float64) {
	per := t.spec.HostsPerRack
	first, last := len(t.racks), (hosts+per-1)/per
	if last <= first {
		return
	}
	// Every "tor<r>/up" and "tor<r>/down" goes into one exactly sized string.
	var digits [20]byte
	size := 0
	for r := first; r < last; r++ {
		size += 2*len(strconv.AppendInt(digits[:0], int64(r), 10)) + len("tor/up") + len("tor/down")
	}
	var b strings.Builder
	b.Grow(size)
	for r := first; r < last; r++ {
		d := strconv.AppendInt(digits[:0], int64(r), 10)
		b.WriteString("tor")
		b.Write(d)
		b.WriteString("/up")
		b.WriteString("tor")
		b.Write(d)
		b.WriteString("/down")
	}
	names := b.String()
	links := make([]Link, 2*(last-first))
	// A ToR link carries up to one flow per host of its rack at once when
	// every host stages (a run's opening storm): their list entries share
	// one array too.
	t.net.initLinks(links, per)
	t.racks = slices.Grow(t.racks, last-first)
	for r := first; r < last; r++ {
		torBps := float64(per) * upBps(r*per) / t.spec.Oversubscription
		d := len(strconv.AppendInt(digits[:0], int64(r), 10))
		up, down := &links[2*(r-first)], &links[2*(r-first)+1]
		t.net.initLink(up, names[:len("tor/up")+d], torBps)
		names = names[len(up.name):]
		t.net.initLink(down, names[:len("tor/down")+d], torBps)
		names = names[len(down.name):]
		up.SetLatency(sim.Duration(t.spec.LatencySec))
		down.SetLatency(sim.Duration(t.spec.LatencySec))
		t.racks = append(t.racks, rack{up: up, down: down})
	}
}

// RackOf returns the host's rack index, or -1 if the host was never
// attached.
func (t *Topology) RackOf(h *Host) int {
	if h.tree != t {
		return -1
	}
	return h.rack
}

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
// been attached. Path panics on src == dst, as the flat helper does. The
// route comes in a fresh slice; AppendPath writes it into the caller's.
func (t *Topology) Path(src, dst *Host) []*Link { return t.AppendPath(nil, src, dst) }

// AppendPath appends Path's route to links and returns the extended slice.
func (t *Topology) AppendPath(links []*Link, src, dst *Host) []*Link {
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
		return append(links, src.up, dst.down)
	}
	return append(links, src.up, t.racks[sr].up, t.spineFor(sr, dr), t.racks[dr].down, dst.down)
}
