package netsim

import (
	"fmt"
	"strings"

	"frieda/internal/sim"
)

// Mbps converts megabits/second to the bits/second unit links use.
func Mbps(v float64) float64 { return v * 1e6 }

// Host is an endpoint with a full-duplex NIC, modelled as independent uplink
// and downlink capacity (how cloud providers provision VM bandwidth).
type Host struct {
	name string
	up   *Link
	down *Link
	// tree is the topology the host is attached to (nil on the flat model)
	// and rack its rack index there.
	tree *Topology
	rack int
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Up returns the host's transmit link.
func (h *Host) Up() *Link { return h.up }

// Down returns the host's receive link.
func (h *Host) Down() *Link { return h.down }

// NewHost creates a host with the given uplink/downlink capacities in bits
// per second: a batch of one (NewHosts).
func (n *Network) NewHost(name string, upBps, downBps float64) *Host {
	return &n.NewHosts([]string{name}, upBps, downBps)[0]
}

// NewHosts creates one host per name, all with the same capacities, exactly
// as NewHost would one at a time. The hosts, their 2·len(names) links, those
// links' names and the links' first flow-list entries take one allocation
// each, so a 65,536-host cluster is four objects rather than five or more
// per host. A link whose list outgrows its entry (the master's uplink) moves
// it to an array of its own. The batch lives as long as any pointer into it:
// a single live host keeps every host and link of its batch.
func (n *Network) NewHosts(names []string, upBps, downBps float64) []Host {
	size := 0
	for _, name := range names {
		size += 2*len(name) + len("/up") + len("/down")
	}
	var b strings.Builder
	b.Grow(size)
	for _, name := range names {
		b.WriteString(name)
		b.WriteString("/up")
		b.WriteString(name)
		b.WriteString("/down")
	}
	linkNames := b.String()
	hosts := make([]Host, len(names))
	links := make([]Link, 2*len(names))
	n.initLinks(links, 1)
	for i, name := range names {
		up, down := &links[2*i], &links[2*i+1]
		n.initLink(up, linkNames[:len(name)+len("/up")], upBps)
		linkNames = linkNames[len(up.name):]
		n.initLink(down, linkNames[:len(name)+len("/down")], downBps)
		linkNames = linkNames[len(down.name):]
		hosts[i] = Host{name: name, up: up, down: down}
	}
	return hosts
}

// Fabric is an optional shared interconnect between hosts, modelling the
// oversubscribed core of a public cloud. When present, host-to-host paths
// include the fabric link.
type Fabric struct {
	link *Link
}

// NewFabric creates a shared fabric of the given capacity.
func (n *Network) NewFabric(name string, bitsPerSec float64) *Fabric {
	return &Fabric{link: n.NewLink(name, bitsPerSec)}
}

// Link exposes the underlying fabric link.
func (f *Fabric) Link() *Link { return f.link }

// AppendPath appends the link path from src to dst, optionally through a
// fabric, to links and returns the extended slice: with a buffer of
// MaxRoute links on the caller's stack, routing a flow or scanning a route
// for a failed link allocates nothing. Transfers between a host and itself
// have no network path; callers model those with the storage layer, and
// AppendPath panics on src == dst to surface such modelling mistakes early.
func AppendPath(links []*Link, src, dst *Host, fabric *Fabric) []*Link {
	if src == dst {
		panic(fmt.Sprintf("netsim: path from host %q to itself", src.name))
	}
	if fabric != nil {
		return append(links, src.up, fabric.link, dst.down)
	}
	return append(links, src.up, dst.down)
}

// Transfer starts a flow of bytes from src to dst (optionally through
// fabric) and calls onComplete, unless nil, when it finishes; an
// interrupted flow ends silently. It is a convenience over StartFlow for
// callers that hold no transfer record of their own — tests and
// bench/probes.go; the simulator's transfers are flows with an owner.
func (n *Network) Transfer(src, dst *Host, fabric *Fabric, bytes float64, onComplete func(sim.Time)) *Flow {
	var buf [MaxRoute]*Link
	var owner FlowOwner
	if onComplete != nil {
		owner = doneFunc(onComplete)
	}
	return n.StartFlow(bytes, AppendPath(buf[:0], src, dst, fabric), owner)
}

// doneFunc is Transfer's owner: a completion callback, deaf to interrupts.
type doneFunc func(sim.Time)

func (fn doneFunc) FlowDone(f *Flow)            { fn(f.net().eng.Now()) }
func (doneFunc) FlowInterrupted(*Flow, float64) {}
