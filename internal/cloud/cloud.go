// Package cloud models the virtual-cluster substrate of FRIEDA's
// evaluation: an ORCA/Flukes-style provisioner that boots virtual machines
// of a given instance type onto a simulated network, with per-VM local
// disks, boot latency, and seeded failure injection.
//
// The paper ran on ExoGENI at Duke with 4 QEMU-backed c1.xlarge instances
// (4 cores, 4 GB) and 100 Mbps provisioned links; Default4VMCluster
// reconstructs exactly that slice.
package cloud

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/storage"
)

// InstanceType describes a provider VM flavour.
type InstanceType struct {
	Name     string
	Cores    int
	MemBytes float64
	// UpBps / DownBps are the provisioned NIC rates in bits/second.
	UpBps, DownBps float64
	// LocalDisk is the spec of the instance-local ephemeral disk.
	LocalDisk storage.Spec
	// BootMinSec / BootMaxSec bound the uniform boot-latency draw.
	BootMinSec, BootMaxSec float64
}

// C1XLarge is the paper's instance type: 4 virtual cores, 4 GB memory,
// 100 Mbps provisioned network.
var C1XLarge = InstanceType{
	Name:       "c1.xlarge",
	Cores:      4,
	MemBytes:   4e9,
	UpBps:      netsim.Mbps(100),
	DownBps:    netsim.Mbps(100),
	LocalDisk:  storage.DefaultLocal,
	BootMinSec: 20,
	BootMaxSec: 60,
}

// Validate reports whether the instance type is usable.
func (t InstanceType) Validate() error {
	if t.Cores <= 0 {
		return fmt.Errorf("cloud: instance type %q has no cores", t.Name)
	}
	if t.UpBps <= 0 || t.DownBps <= 0 {
		return fmt.Errorf("cloud: instance type %q has no network", t.Name)
	}
	if t.BootMinSec < 0 || t.BootMaxSec < t.BootMinSec {
		return fmt.Errorf("cloud: instance type %q has invalid boot window", t.Name)
	}
	return t.LocalDisk.Validate()
}

// VMState is a machine lifecycle state.
type VMState int

const (
	// StateProvisioning means the boot request is in flight.
	StateProvisioning VMState = iota
	// StateRunning means the VM is up and reachable.
	StateRunning
	// StateFailed means the VM crashed; its local disk contents are gone.
	StateFailed
)

// String names the state.
func (s VMState) String() string {
	switch s {
	case StateProvisioning:
		return "provisioning"
	case StateRunning:
		return "running"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// VM is a provisioned virtual machine.
type VM struct {
	id    int
	name  string
	typ   InstanceType
	state VMState

	host      *netsim.Host
	localDisk *storage.Volume
	site      int

	failTimer *sim.Timer
	cluster   *Cluster
	// readyOnce holds the OnReadyOnce callbacks waiting for this VM's boot,
	// in registration order; bootComplete fires and drops them.
	readyOnce []func()
}

// ID returns the VM's cluster-unique id.
func (vm *VM) ID() int { return vm.id }

// Name returns the VM name (e.g. "vm-2").
func (vm *VM) Name() string { return vm.name }

// Type returns the instance type.
func (vm *VM) Type() InstanceType { return vm.typ }

// Host returns the VM's network endpoint.
func (vm *VM) Host() *netsim.Host { return vm.host }

// LocalDisk returns the ephemeral local volume.
func (vm *VM) LocalDisk() *storage.Volume { return vm.localDisk }

// Running reports whether the VM is currently usable.
func (vm *VM) Running() bool { return vm.state == StateRunning }

// SetSite assigns the VM to a site (0 unless set) — used for federated
// topologies where only cross-site traffic crosses the fabric.
func (c *Cluster) SetSite(vm *VM, site int) { vm.site = site }

// Options configures a cluster.
type Options struct {
	// Seed drives boot-latency and failure draws; runs with equal seeds are
	// identical.
	Seed int64
	// FailureMTBFSec, when > 0, injects exponential VM failures with the
	// given mean time between failures per VM.
	FailureMTBFSec float64
	// Fabric, when non-nil capacity, inserts a shared core link between all
	// hosts (oversubscribed public-cloud model). Zero means dedicated pairs.
	FabricBps float64
	// InstantBoot skips boot latency; experiments that start measurement
	// after the cluster is up (as the paper does) use this.
	InstantBoot bool
	// Topology, when non-nil, arranges hosts in a rack/spine fat-tree
	// instead of the flat host(+fabric) model: provisioned VMs fill racks in
	// order and transfers route host→ToR→spine→ToR→host. Topology and
	// FabricBps are mutually exclusive.
	Topology *netsim.TreeSpec
}

// Cluster is a set of VMs on a simulated network.
type Cluster struct {
	eng    *sim.Engine
	net    *netsim.Network
	fabric *netsim.Fabric
	tree   *netsim.Topology
	rng    *rand.Rand
	opts   Options

	vms    []*VM
	nextID int

	onFail     []func(*VM)
	onDiskFail []func(*VM, *storage.Volume)
}

// New creates an empty cluster on the engine.
func New(eng *sim.Engine, opts Options) *Cluster {
	c := &Cluster{
		eng:  eng,
		net:  netsim.New(eng),
		rng:  rand.New(rand.NewSource(opts.Seed)),
		opts: opts,
	}
	if opts.Topology != nil {
		if opts.FabricBps > 0 {
			panic("cloud: Topology and FabricBps are mutually exclusive")
		}
		tree, err := netsim.NewTree(c.net, *opts.Topology)
		if err != nil {
			panic(err) // spec errors are construction bugs, like NewLink dups
		}
		c.tree = tree
	} else if opts.FabricBps > 0 {
		c.fabric = c.net.NewFabric("fabric", opts.FabricBps)
	}
	return c
}

// Engine returns the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Network returns the flow-level network.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Fabric returns the shared fabric, or nil when links are dedicated.
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// VMs returns all VMs ever provisioned, in provisioning order.
func (c *Cluster) VMs() []*VM { return c.vms }

// OnReadyOnce runs fn when the specific VM comes up — immediately if it is
// already running. Used to attach a replacement worker as soon as its boot
// completes. The callback waits on the VM, not the cluster: the VM's boot
// event runs it, and no other boot ever sees it.
func (c *Cluster) OnReadyOnce(vm *VM, fn func()) {
	if vm.Running() {
		fn()
		return
	}
	vm.readyOnce = append(vm.readyOnce, fn)
}

// OnFailure registers a callback invoked when any VM fails.
func (c *Cluster) OnFailure(fn func(*VM)) { c.onFail = append(c.onFail, fn) }

// Provision requests n VMs of the given type. VMs boot asynchronously
// (unless Options.InstantBoot) and OnReadyOnce callbacks fire as each comes up.
// The returned VMs are in StateProvisioning until then.
//
// The batch is built one slab per kind — VMs, hosts, NIC links, local disks
// and one string holding every name — and each VM is the handler of its own
// boot event, so its cost is a handful of objects whatever n is. A VM
// pointer therefore pins its whole batch: the n VMs, their hosts, links and
// disks are freed together.
func (c *Cluster) Provision(n int, typ InstanceType) ([]*VM, error) {
	if err := typ.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("cloud: provision of %d VMs", n)
	}
	first := c.nextID
	// Every "vm-<id>/local" goes into one exactly sized string; the VM (and
	// host) name "vm-<id>" is its prefix.
	var digits [20]byte
	size := 0
	for id := first; id < first+n; id++ {
		size += len("vm-/local") + len(strconv.AppendInt(digits[:0], int64(id), 10))
	}
	var b strings.Builder
	b.Grow(size)
	for id := first; id < first+n; id++ {
		b.WriteString("vm-")
		b.Write(strconv.AppendInt(digits[:0], int64(id), 10))
		b.WriteString("/local")
	}
	all := b.String()
	names := make([]string, n)
	for i := range names {
		names[i] = all[:strings.IndexByte(all, '/')+len("/local")]
		all = all[len(names[i]):]
	}
	disks, err := storage.NewVolumes(names, typ.LocalDisk)
	if err != nil {
		return nil, err
	}
	for i, local := range names {
		names[i] = strings.TrimSuffix(local, "/local")
	}
	hosts := c.net.NewHosts(names, typ.UpBps, typ.DownBps)
	if c.tree != nil {
		c.tree.AttachHosts(hosts)
	}
	c.nextID += n
	c.eng.Reserve(n) // the boot events
	vms := make([]VM, n)
	out := make([]*VM, n)
	c.vms = slices.Grow(c.vms, n)
	for i := range vms {
		vm := &vms[i]
		*vm = VM{
			id:        first + i,
			name:      names[i],
			typ:       typ,
			state:     StateProvisioning,
			host:      &hosts[i],
			localDisk: &disks[i],
			cluster:   c,
		}
		c.vms = append(c.vms, vm)
		out[i] = vm
		boot := sim.Duration(0)
		if !c.opts.InstantBoot {
			boot = sim.Duration(typ.BootMinSec + c.rng.Float64()*(typ.BootMaxSec-typ.BootMinSec))
		}
		c.eng.ScheduleHandler(boot, (*bootEvent)(vm))
	}
	return out, nil
}

// bootEvent is a VM as the handler of its boot event: the event fires the
// VM itself, in its slab, so booting a batch costs no closure per VM.
type bootEvent VM

// Fire completes the VM's boot.
func (b *bootEvent) Fire() {
	vm := (*VM)(b)
	vm.cluster.bootComplete(vm)
}

// bootComplete transitions a VM to running, arms its failure clock, and runs
// the VM's OnReadyOnce callbacks.
func (c *Cluster) bootComplete(vm *VM) {
	once := vm.readyOnce
	vm.readyOnce = nil
	vm.state = StateRunning
	if c.opts.FailureMTBFSec > 0 {
		vm.failTimer = sim.NewTimer(c.eng, func() { c.Fail(vm) })
		vm.failTimer.Reset(sim.Exp(c.rng, c.opts.FailureMTBFSec))
	}
	for _, fn := range once {
		fn()
	}
}

// Fail crashes a running VM at the current virtual time: its state flips,
// its ephemeral disk is considered lost, and failure callbacks fire. Fail of
// a non-running VM is a no-op. Experiments also call this directly for
// scripted failures.
func (c *Cluster) Fail(vm *VM) {
	if vm.state != StateRunning {
		return
	}
	vm.state = StateFailed
	if vm.failTimer != nil {
		vm.failTimer.Stop()
	}
	for _, fn := range c.onFail {
		fn(vm)
	}
}

// OnDiskFailure registers a callback invoked when a running VM's local disk
// dies (wiped by an injector or FailDisk). The VM itself keeps running —
// media death without machine death is exactly the fault class a
// replication layer must repair.
func (c *Cluster) OnDiskFailure(fn func(*VM, *storage.Volume)) {
	c.onDiskFail = append(c.onDiskFail, fn)
}

// FailDisk wipes a running VM's local disk at the current virtual time and
// fires disk-failure callbacks. A no-op on non-running VMs: a dead machine's
// media has already been lost with the machine. Experiments call this
// directly for scripted disk deaths.
func (c *Cluster) FailDisk(vm *VM) {
	if !vm.Running() {
		return
	}
	vm.localDisk.Wipe()
	for _, fn := range c.onDiskFail {
		fn(vm, vm.localDisk)
	}
}

// InjectDiskFaults arms a seeded disk-fault injector over the local disks of
// the given VMs, grouping media faults with VM lifecycle the way
// InjectLinkFaults groups NIC links: a volume death on a running VM fires
// the cluster's OnDiskFailure callbacks (deaths on already-dead VMs are
// swallowed — the machine's loss subsumes the media's). The caller picks the
// VMs and stops the injector when the run is over.
func (c *Cluster) InjectDiskFaults(vms []*VM, opts storage.DiskFaultOptions) *storage.DiskFaultInjector {
	vols := make([]*storage.Volume, len(vms))
	byVol := make(map[*storage.Volume]*VM, len(vms))
	for i, vm := range vms {
		vols[i] = vm.localDisk
		byVol[vm.localDisk] = vm
	}
	return storage.NewDiskFaultInjector(c.eng, vols, opts, func(v *storage.Volume) {
		vm := byVol[v]
		if vm == nil || !vm.Running() {
			return
		}
		for _, fn := range c.onDiskFail {
			fn(vm, v)
		}
	})
}

// InjectLinkFaults arms a seeded link-fault injector over the NIC links of
// the given VMs: each VM's uplink and downlink form one fault group that
// fails and recovers together, so an outage is a network partition of that
// VM — the link-level counterpart of Options.FailureMTBFSec, for fabrics
// that fail partially far more often than machines crash outright. The
// caller picks the VMs (experiments typically exclude the master, the
// paper's acknowledged single point of failure) and stops the injector
// when the run is over.
func (c *Cluster) InjectLinkFaults(vms []*VM, opts netsim.FaultOptions) *netsim.LinkFaultInjector {
	groups := make([][]*netsim.Link, 0, len(vms))
	for _, vm := range vms {
		groups = append(groups, []*netsim.Link{vm.host.Up(), vm.host.Down()})
	}
	return netsim.NewLinkFaultInjector(c.net, groups, opts)
}

// AppendTransferPath appends the network path for a transfer between two
// VMs to links and returns the extended slice. Under a tree topology the
// path routes through the rack/spine switches. With a fabric configured,
// same-site pairs bypass it: the fabric models the inter-site WAN (or the
// oversubscribed core when all VMs share site 0, the default). With a
// [netsim.MaxRoute] buffer on the caller's stack it allocates nothing, which
// is how flows start and how probes scan a route's links.
func (c *Cluster) AppendTransferPath(links []*netsim.Link, src, dst *VM) []*netsim.Link {
	if c.tree != nil {
		return c.tree.AppendPath(links, src.host, dst.host)
	}
	fabric := c.fabric
	if fabric != nil && src.site == dst.site && src.site != 0 {
		fabric = nil
	}
	return netsim.AppendPath(links, src.host, dst.host, fabric)
}

// Transfer starts a flow between two VMs, owned by owner (see
// netsim.StartFlow).
func (c *Cluster) Transfer(src, dst *VM, bytes float64, owner netsim.FlowOwner) *netsim.Flow {
	var buf [netsim.MaxRoute]*netsim.Link
	return c.net.StartFlow(bytes, c.AppendTransferPath(buf[:0], src, dst), owner)
}

// Default4VMCluster reconstructs the paper's testbed slice: 4 × c1.xlarge
// with 100 Mbps provisioned links and instant boot (the paper measures from
// a running cluster). The extra fifth host for a data source is NOT included
// — the master runs on vm-0 "close to the source of the input data", as the
// paper prescribes.
func Default4VMCluster(eng *sim.Engine, seed int64) (*Cluster, []*VM) {
	c := New(eng, Options{Seed: seed, InstantBoot: true})
	vms, err := c.Provision(4, C1XLarge)
	if err != nil {
		panic(err) // C1XLarge is statically valid
	}
	eng.RunUntil(eng.Now()) // deliver instant-boot events
	return c, vms
}
