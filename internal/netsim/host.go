package netsim

import (
	"fmt"

	"frieda/internal/sim"
)

// Mbps converts megabits/second to the bits/second unit links use.
func Mbps(v float64) float64 { return v * 1e6 }

// Gbps converts gigabits/second to bits/second.
func Gbps(v float64) float64 { return v * 1e9 }

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
// per second.
func (n *Network) NewHost(name string, upBps, downBps float64) *Host {
	return &Host{
		name: name,
		up:   n.NewLink(name+"/up", upBps),
		down: n.NewLink(name+"/down", downBps),
	}
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

// Path returns the link path from src to dst, optionally through a fabric.
// Transfers between a host and itself have no network path; callers should
// model those with the storage layer. Path panics on src == dst to surface
// such modelling mistakes early.
func Path(src, dst *Host, fabric *Fabric) []*Link {
	if src == dst {
		panic(fmt.Sprintf("netsim: path from host %q to itself", src.name))
	}
	if fabric != nil {
		return []*Link{src.up, fabric.link, dst.down}
	}
	return []*Link{src.up, dst.down}
}

// Transfer starts a flow of bytes from src to dst (optionally through
// fabric) and invokes onComplete when it finishes.
func (n *Network) Transfer(src, dst *Host, fabric *Fabric, bytes float64, onComplete func(sim.Time)) *Flow {
	return n.StartFlow(bytes, Path(src, dst, fabric), onComplete)
}
