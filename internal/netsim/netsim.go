// Package netsim models a network at flow level on virtual time.
//
// Instead of simulating packets, each active transfer is a fluid flow across
// a path of links; the network solves the classic max-min fair allocation
// (progressive filling / water-filling) every time the set of flows or link
// capacities change, and schedules flow completions on the sim engine.
//
// This is the standard abstraction used by cloud-scale simulators: it
// captures precisely the effects FRIEDA's evaluation depends on — the
// master's 100 Mbps uplink being shared by 16 concurrent worker transfers,
// and transfer/computation overlap under the real-time strategy — without
// the cost of packet-level simulation.
//
// Allocation is incremental and component-scoped: a flow start, finish,
// cancel, link fault or capacity change settles and re-solves only the
// connected component of links and flows reachable from the affected links,
// leaving every other component's rates and completion events untouched.
// Each such change marks its links dirty, and one rebalance event per
// virtual instant re-solves the union of their components (markDirty). One solve
// runs progressive filling over an indexed min-heap of link fair shares in
// O((F+L)·log L) for a component of F flows and L links, and completions
// are rescheduled only for flows whose rate actually changed. The retained
// reference solver in oracle.go cross-checks rate vectors in tests.
//
// Links have a fault lifecycle (FailLink / DegradeLink / RestoreLink): a
// failed link kills the flows crossing it — each reports its delivered
// byte count to its FlowOwner so the sender can resume from that offset —
// and a seeded LinkFaultInjector (faults.go) drives MTBF/MTTR
// outage schedules, optionally as flapping bursts or partial degradations.
package netsim

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"

	"frieda/internal/obs"
	"frieda/internal/sim"
)

// completionEpsilon is the residual byte count below which a flow counts as
// finished; it absorbs float64 rounding in the fluid model.
const completionEpsilon = 1e-6

// minRescheduleEta is the smallest remaining-transfer time worth
// rescheduling. Below it the flow finishes immediately: late in a long run
// the virtual clock's float64 ulp exceeds tiny ETAs, so rescheduling would
// re-fire at the same instant forever without draining the residual.
const minRescheduleEta = 1e-9

// Link is a unidirectional capacity-constrained resource (a NIC direction or
// a shared fabric).
type Link struct {
	name     string
	capacity float64 // effective bits per second (base, possibly degraded)
	base     float64 // provisioned capacity RestoreLink returns to
	failed   bool
	latency  sim.Duration
	net      *Network
	// flows lists the flows traversing the link, in no particular order: a
	// flow appends itself on joining and records the index (Flow.slot), so
	// leaving is a swap-remove. See Network.attachFlow.
	flows []*Flow

	// Allocator scratch, valid only inside one reallocation. mark is the
	// component-BFS generation; dirty is the rebalance dirty-set
	// generation; the rest is progressive-filling state.
	mark     uint64
	dirty    uint64
	residual float64 // unallocated capacity this solve
	unfrozen int     // flows on this link not yet frozen at a fair share
	share    float64 // residual/unfrozen; +Inf once all flows are frozen
	hidx     int     // index in the solver's link heap

	// tracedBps is the last utilised rate emitted to the tracer, so counter
	// events fire only when the solver actually changed the link's load.
	tracedBps float64
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's effective capacity in bits per second (the
// provisioned rate, unless the link is currently degraded).
func (l *Link) Capacity() float64 { return l.capacity }

// Failed reports whether the link is currently down (see Network.FailLink).
func (l *Link) Failed() bool { return l.failed }

// Degraded reports whether the link is currently running below its
// provisioned rate (see Network.DegradeLink) — the regime where transfers
// crawl and, in the durability model, may corrupt bytes in flight.
func (l *Link) Degraded() bool { return l.capacity < l.base }

// SetLatency sets the link's propagation delay (federated/wide-area sites).
// It applies to flows started afterwards.
func (l *Link) SetLatency(d sim.Duration) {
	if d < 0 {
		panic("netsim: negative latency")
	}
	l.latency = d
}

// ActiveFlows returns the number of flows currently traversing the link.
func (l *Link) ActiveFlows() int { return len(l.flows) }

// UtilisedBps returns the sum of the link's flow rates under the current
// allocation. The sum is accumulated in flow-id order so the float64 result
// is deterministic across runs.
func (l *Link) UtilisedBps() float64 { return l.net.sumRatesByID(l.flows) }

// unlist drops the flow at index i of the link's flow list by moving the last
// flow into its place. The moved flow finds which of its slots to correct by
// scanning its path for the link, which is why a path may not name a link
// twice (StartFlow checks).
func (l *Link) unlist(i int32) {
	last := len(l.flows) - 1
	if int(i) != last {
		moved := l.flows[last]
		l.flows[i] = moved
		*moved.slot(slices.Index(moved.path(), l)) = i
	}
	l.flows[last] = nil // do not keep a departed flow reachable
	l.flows = l.flows[:last]
}

// updateShare refreshes the link's fair-share heap key.
func (l *Link) updateShare() {
	if l.unfrozen == 0 {
		l.share = math.Inf(1)
	} else {
		l.share = l.residual / float64(l.unfrozen)
	}
}

// FlowOwner is told how a flow it started ends. StartFlow takes it once and
// the flow keeps it, so neither end costs a callback closure: the sender's
// own transfer record is the owner. At most one of the two methods runs,
// and neither runs for a flow cancelled before the owner heard of its end.
//
// A *Flow is its owner's until the owner hears how the flow ended: once
// FlowDone or FlowInterrupted returns, or once the owner has cancelled it,
// the network takes the flow back for a later StartFlow to reuse, so the
// owner must drop its pointer by then. Inside either method the flow is
// still whole (Bottleneck, Delivered, ID). A flow started without an owner
// is never taken back: nobody hears how it ends, so whoever holds it may
// keep it.
type FlowOwner interface {
	// FlowDone runs at the virtual time the flow's last byte arrives.
	FlowDone(f *Flow)
	// FlowInterrupted runs when a link failure kills the flow, with the
	// bytes delivered up to then (the resume offset).
	FlowInterrupted(f *Flow, delivered float64)
}

// Flow is an in-flight transfer across a path of links.
type Flow struct {
	id         uint64
	bytes      float64
	remaining  float64
	rate       float64 // bits per second under the current allocation
	lastUpdate sim.Time
	done       sim.EventRef
	owner      FlowOwner // nil: the flow ends silently

	// Allocator scratch: component-BFS generation and the solver's staged
	// rate/freeze state for the in-progress solve. pcap is the folded
	// composite capacity of the flow's cold links (solveComponent).
	mark     uint64
	nextRate float64
	pcap     float64

	// The path, copied in by StartFlow: links[:npath] when it fits, which
	// every production route does (MaxRoute), else spill.path. The flow's
	// network is its first link's.
	links [MaxRoute]*Link

	// Membership, valid while the flow is joined: netPos is its index in
	// Network.flows and pos[i] its index in path()[i].flows; a path longer
	// than MaxRoute keeps the rest of its indices in spill.pos. With the
	// flags packed last the struct is 184 bytes, inside the 192-byte size
	// class; a slice header for the path, or a *Network beside the links
	// plus one more word, would push every flow into the next one
	// (DESIGN.md, "Flow's size class").
	netPos int32
	pos    [MaxRoute]int32
	spill  *flowSpill

	npath       uint8
	finished    bool
	cancelled   bool
	interrupted bool
	pending     bool // latency delay not yet elapsed; not joined to links
	frozen      bool // solver scratch, with nextRate
	free        bool // taken back (recycle); the arena's until StartFlow reuses it
}

// MaxRoute is the most links a route from Path or Topology.Path has: a
// buffer this long holds any of them, and a flow keeps that many path links
// and list indices in place.
const MaxRoute = 5

// flowSpill holds the path and the list indices of a flow whose path is
// longer than MaxRoute (only tests build such paths).
type flowSpill struct {
	path []*Link
	pos  []int32
}

// path returns the links the flow crosses, sender side first.
func (f *Flow) path() []*Link {
	if f.spill != nil {
		return f.spill.path
	}
	return f.links[:f.npath]
}

// net returns the network the flow runs on.
func (f *Flow) net() *Network { return f.links[0].net }

// slot returns where the flow keeps its index in path()[i].flows.
func (f *Flow) slot(i int) *int32 {
	if i < MaxRoute {
		return &f.pos[i]
	}
	return &f.spill.pos[i-MaxRoute]
}

// ID returns the flow's number, unique within its network for the
// network's whole life. A record taken back and reused by a later flow
// gets that flow's ID, so an ID, not a pointer, tells whether a flow seen
// earlier is still the one running.
func (f *Flow) ID() uint64 { return f.id }

// Bytes returns the flow's total size in bytes.
func (f *Flow) Bytes() float64 { return f.bytes }

// Remaining returns the unsent byte count, settled to the current virtual
// instant — no prior Network.Settle call is needed.
func (f *Flow) Remaining() float64 {
	if !f.finished && !f.pending {
		f.settleTo(f.net().eng.Now())
	}
	return f.remaining
}

// Rate returns the flow's current max-min fair rate in bits per second.
func (f *Flow) Rate() float64 { return f.rate }

// Delivered returns the bytes that reached the receiver so far (all of them
// once the flow finishes) — the resume offset for an interrupted transfer.
func (f *Flow) Delivered() float64 { return f.bytes - f.Remaining() }

// Bottleneck returns the path link that most tightly capped the flow: the
// one with the smallest hypothetical fair share capacity/(flows+1). The +1
// stands in for this flow itself, which has already detached by the time
// its owner hears of the completion or interruption — the usual call sites. A failed
// link has zero capacity and therefore always wins. Ties break to the link
// nearest the sender, so the answer is deterministic. Returns nil only for
// a pathless flow.
func (f *Flow) Bottleneck() *Link {
	var best *Link
	var bestShare float64
	for _, l := range f.path() {
		cap := l.capacity
		if l.failed {
			cap = 0
		}
		share := cap / float64(len(l.flows)+1)
		if best == nil || share < bestShare {
			best, bestShare = l, share
		}
	}
	return best
}

// settleTo advances the flow's remaining-byte accounting to now.
func (f *Flow) settleTo(now sim.Time) {
	dt := float64(now - f.lastUpdate)
	if dt > 0 && f.rate > 0 {
		f.remaining -= f.rate / 8 * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastUpdate = now
}

// Network is a set of links plus the active flows over them. It keeps no
// list of its links: a link is reachable from the host, fabric or topology
// that made it, and from the flows crossing it.
type Network struct {
	eng    *Engine
	flows  []*Flow // active flows, each at index Flow.netPos
	nextID uint64

	// mark is the component-BFS generation counter; compLinks/compFlows and
	// lheap are reusable scratch for the current reallocation. capScratch
	// holds the solver's composite-capacity flow ordering and sumScratch the
	// id-ordered copy sumRatesByID adds up.
	mark       uint64
	compLinks  []*Link
	compFlows  []*Flow
	lheap      linkHeap
	capScratch []*Flow
	sumScratch []*Flow

	// Reallocation state: flow starts, completions and cancels mark their
	// links dirty and one rebalance pass per virtual instant settles, solves
	// and applies rates for the union of dirty components. dirtyGen guards
	// Link.dirty marks.
	dirtyGen    uint64
	dirtySeeds  []*Link
	nlinks      int // links built so far: the dirty set's bound
	rebalanceOn bool

	// tracer, when non-nil, receives a counter event per link whose utilised
	// rate the solver changed, plus link fault lifecycle instants.
	tracer *obs.Tracer

	// flowArena is where StartFlow takes its flows from.
	flowArena sim.Arena[Flow]

	// BytesMoved accumulates total completed-flow volume, for reports.
	BytesMoved float64
	// FlowsCompleted counts completed flows.
	FlowsCompleted uint64
	// FlowsInterrupted counts flows killed by link failures.
	FlowsInterrupted uint64
}

// ReserveFlows makes the next k StartFlow calls take their flows from one
// chunk: a storm of flows known in advance, such as a run's opening staging
// of every worker, costs one allocation.
func (n *Network) ReserveFlows(k int) { n.flowArena.Reserve(k) }

// Engine aliases the simulation engine type for callers that only import
// netsim.
type Engine = sim.Engine

// New returns an empty network bound to the engine.
func New(eng *Engine) *Network {
	return &Network{
		eng:      eng,
		dirtyGen: 1, // Link.dirty zero value must read as "not in the dirty set"
	}
}

// SetColdAggregation does nothing: cold-link folding is how the solver works
// (see solveComponent), not a mode. It remains only because
// bench/probes.go:514 calls it and a PR that edits the solver may not edit
// bench/; the benchmark PR (ROADMAP item 1) removes that call and this
// method. Nothing else may call it.
func (n *Network) SetColdAggregation(bool) {}

// SetBatched does nothing: batched reallocation (markDirty) is how flow
// starts, completions and cancels re-rate the network, not a mode. It
// remains only because bench/probes.go:515 calls it and a PR that edits
// netsim may not edit bench/; the benchmark PR (ROADMAP item 1) removes that
// call and this method. Nothing else may call it.
func (n *Network) SetBatched(bool) {}

// markDirty adds the links to the dirty set and ensures a rebalance event is
// queued at the current instant. It is the one way the network re-rates:
// flow starts, completions and cancels mark their path, and FailLink,
// RestoreLink, DegradeLink and SetCapacity the links they change or free.
// The engine fires same-instant events FIFO, so the rebalance runs after
// every already-queued event of the instant, and a 65k-flow staging storm
// costs one solve instead of 65k. Until it runs, a started flow sits at rate
// 0, a finished, cancelled or killed one is off its links, and the flows it
// shared them with, like those of a re-rated link, keep their old rates;
// every event at a later instant sees the max-min rates. Dedup is by
// dirty-generation, so a storm of same-instant changes over shared links
// appends each link once.
func (n *Network) markDirty(links ...*Link) {
	g := n.dirtyGen
	if n.dirtySeeds == nil {
		n.dirtySeeds = make([]*Link, 0, n.nlinks) // every link fits
	}
	for _, l := range links {
		if l.dirty != g {
			l.dirty = g
			n.dirtySeeds = appendDoubling(n.dirtySeeds, l)
		}
	}
	if !n.rebalanceOn {
		n.rebalanceOn = true
		n.eng.ScheduleHandler(0, (*rebalancer)(n))
	}
}

// rebalancer is the network as the handler of its rebalance event, so
// queuing the event is a pointer conversion and allocates nothing.
type rebalancer Network

// Fire is the deferred solve: one settle/solve/apply over the connected
// components of every link dirtied since the last pass. Owners hear of
// completions from the flows' own events, not from here, so no new dirt
// appears mid-pass; an owner that starts or finishes another flow this tick
// schedules a fresh rebalance, and a busy instant converges in a small
// constant number of passes.
func (r *rebalancer) Fire() {
	n := (*Network)(r)
	n.rebalanceOn = false
	if len(n.dirtySeeds) == 0 {
		return
	}
	n.component(n.dirtySeeds...)
	n.dirtySeeds = n.dirtySeeds[:0]
	n.dirtyGen++
	n.settleComponent()
	n.solveComponent()
	n.applyRates()
}

// NewLink adds a link with the given capacity in bits per second. The name is
// diagnostic (traces, panics, the solver's tie-break) and should be unique;
// the builders derive every name from a unique index — VM id, rack, spine —
// so nothing checks it.
func (n *Network) NewLink(name string, bitsPerSec float64) *Link {
	l := new(Link)
	n.initLink(l, name, bitsPerSec)
	return l
}

// initLink makes *l a fresh link of the network, for NewLink and the slab
// builders (NewHosts, Topology's racks). It keeps the flow list's backing
// (initLinks).
func (n *Network) initLink(l *Link, name string, bitsPerSec float64) {
	if bitsPerSec <= 0 {
		panic(fmt.Sprintf("netsim: non-positive capacity for link %q", name))
	}
	*l = Link{name: name, capacity: bitsPerSec, base: bitsPerSec, net: n, flows: l.flows}
	n.nlinks++
}

// initLinks gives a slab of links one shared backing array for the first
// per flows of each list. Each list's capacity ends at its own share (a full
// slice expression), so a list that outgrows it moves alone to a fresh array
// and no list ever writes into another's.
func (n *Network) initLinks(links []Link, per int) {
	first := make([]*Flow, per*len(links))
	for i := range links {
		links[i].flows = first[per*i : per*i : per*(i+1)]
	}
}

// SetTracer attaches an observability tracer (nil detaches): every solver
// rate change emits a per-link utilised-bps counter event, and link fault
// transitions emit instants on the link's track. Recording never alters
// allocation behaviour.
func (n *Network) SetTracer(t *obs.Tracer) { n.tracer = t }

// AggregateRateBps returns the summed rate of every active flow — the
// network's instantaneous goodput. Accumulated in flow-id order for
// deterministic float64 results.
func (n *Network) AggregateRateBps() float64 { return n.sumRatesByID(n.flows) }

// byFlowID orders flows by id: the order every float64 sum and every
// same-instant reschedule uses, since the flow lists themselves are unordered.
func byFlowID(a, b *Flow) int { return cmp.Compare(a.id, b.id) }

// sumRatesByID adds up the flows' rates in flow-id order over a sorted copy
// in reused scratch; flows itself is left as it is.
func (n *Network) sumRatesByID(flows []*Flow) float64 {
	sorted := append(n.sumScratch[:0], flows...)
	slices.SortFunc(sorted, byFlowID)
	var sum float64
	for _, f := range sorted {
		sum += f.rate
	}
	n.sumScratch = sorted
	return sum
}

// SetCapacity changes a link's provisioned capacity at the current virtual
// time (models provisioned-bandwidth changes or congestion from co-tenants);
// the link's component re-rates at the instant's rebalance (markDirty). The
// new value becomes the base that RestoreLink returns to.
func (n *Network) SetCapacity(l *Link, bitsPerSec float64) {
	if bitsPerSec <= 0 {
		panic("netsim: non-positive capacity")
	}
	l.capacity = bitsPerSec
	l.base = bitsPerSec
	n.markDirty(l)
}

// FailLink takes a link down at the current virtual time. Every flow
// traversing it is killed: the flow's byte accounting settles to now, its
// owner (if any) hears FlowInterrupted with the delivered byte count, and
// never FlowDone. Flows sharing other links with a victim re-rate over the
// freed capacity at the instant's rebalance (markDirty). New flows whose
// path crosses a failed link are interrupted at join time with zero bytes
// delivered. FailLink of a failed link is a no-op.
func (n *Network) FailLink(l *Link) {
	if l.failed {
		return
	}
	l.failed = true
	if n.tracer.Enabled() {
		n.tracer.Instant(l.name, "linkfault", "fail", obs.Args{"flows_killed": len(l.flows)})
	}
	victims := slices.Clone(l.flows)
	slices.SortFunc(victims, byFlowID)
	now := n.eng.Now()
	for _, f := range victims {
		f.settleTo(now)
		n.detachFlow(f)
		n.markDirty(f.path()...)
		f.interrupted = true
		f.rate = 0
		n.FlowsInterrupted++
	}
	for _, f := range victims {
		if f.owner != nil && !f.cancelled { // an earlier victim's owner may have cancelled it
			f.owner.FlowInterrupted(f, f.bytes-f.remaining)
		}
		n.recycle(f)
	}
}

// RestoreLink brings a failed or degraded link back to its provisioned
// capacity; its component re-rates at the instant's rebalance. Interrupted
// flows do not come back — recovery (retry/resume) is the sender's job.
func (n *Network) RestoreLink(l *Link) {
	if !l.failed && l.capacity == l.base {
		return
	}
	l.failed = false
	l.capacity = l.base
	n.tracer.Instant(l.name, "linkfault", "restore", nil)
	n.markDirty(l)
}

// DegradeLink re-rates a link to the given fraction of its provisioned
// capacity (partial fault: packet loss, a flapping carrier, co-tenant
// congestion); the flows crossing it re-rate at the instant's rebalance.
// factor must be in (0, 1]. RestoreLink undoes the degradation.
func (n *Network) DegradeLink(l *Link, factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("netsim: degrade factor %v outside (0,1]", factor))
	}
	l.capacity = l.base * factor
	if n.tracer.Enabled() {
		n.tracer.Instant(l.name, "linkfault", "degrade", obs.Args{"factor": factor})
	}
	n.markDirty(l)
}

// StartFlow begins a transfer of the given byte count across path, and
// tells owner (nil: nobody) how it ends: FlowDone at the virtual time the
// last byte arrives, or FlowInterrupted if a link failure kills it first.
// The path is copied into the flow, so a caller may build it in a reused or
// stack buffer (AppendPath, Topology.AppendPath). Path propagation latency
// (the sum over links) delays the transfer's start — the connection-setup
// RTT of the paper's scp-per-file protocol. A zero or negative size
// completes after the latency alone. An empty path panics — model
// node-local copies with the storage layer instead — and so does a path
// that names a link twice: no route crosses a link twice, and the flow
// lists rely on it (Link.unlist). The returned flow is the owner's until
// the owner hears how it ended (FlowOwner).
func (n *Network) StartFlow(bytes float64, path []*Link, owner FlowOwner) *Flow {
	if len(path) == 0 {
		panic("netsim: empty flow path")
	}
	for i, l := range path {
		if slices.Index(path[:i], l) >= 0 {
			panic(fmt.Sprintf("netsim: flow path crosses link %q twice", l.name))
		}
	}
	n.nextID++
	f := n.flowArena.New()
	f.id, f.bytes, f.remaining, f.owner = n.nextID, bytes, bytes, owner
	f.npath = uint8(copy(f.links[:], path))
	if len(path) > MaxRoute {
		f.spill = &flowSpill{path: slices.Clone(path), pos: make([]int32, len(path)-MaxRoute)}
	}
	var latency sim.Duration
	for _, l := range path {
		latency += l.latency
	}
	if bytes <= completionEpsilon {
		f.finished = true
		n.FlowsCompleted++
		n.eng.ScheduleHandler(latency, f) // Fire reports the finish
		return f
	}
	if latency > 0 {
		f.pending = true
		n.eng.ScheduleHandler(latency, f) // Fire joins
	} else {
		f.lastUpdate = n.eng.Now()
		f.join()
	}
	return f
}

// Fire is the flow's own engine event, whichever is due: the end of its
// latency delay (join), its completion, or the report one event after
// StartFlow of a zero-byte finish or of a birth on a failed link. The
// state flags tell them apart: a flow has at most one event pending.
func (f *Flow) Fire() {
	if f.free {
		panic(fmt.Sprintf("netsim: event of flow %d after it was taken back", f.id))
	}
	switch {
	case f.pending:
		f.join()
	case f.cancelled: // cancelled before its report: the owner never hears
		f.net().recycle(f)
	case f.interrupted:
		if f.owner != nil {
			f.owner.FlowInterrupted(f, 0)
		}
		f.net().recycle(f)
	case f.finished:
		if f.owner != nil {
			f.owner.FlowDone(f)
		}
		f.net().recycle(f)
	default:
		f.complete()
	}
}

// join puts a started flow on its links once its latency delay has elapsed
// (at once, without one) and has the allocator rate it.
func (f *Flow) join() {
	f.pending = false
	n := f.net()
	if f.cancelled {
		n.recycle(f) // its last event has fired
		return
	}
	path := f.path()
	for _, l := range path {
		if l.failed {
			// The connection attempt hits a dead link: the flow is born
			// interrupted with nothing delivered. The owner hears of it one
			// event later (Fire), so it never learns of the end of a flow
			// whose StartFlow has not yet returned to it.
			f.interrupted = true
			n.FlowsInterrupted++
			n.eng.ScheduleHandler(0, f)
			return
		}
	}
	f.lastUpdate = n.eng.Now()
	n.attachFlow(f)
	n.markDirty(path...) // at rate 0, with no elapsed time, until the rebalance
}

// Cancel aborts an in-flight flow (e.g. the receiving worker failed), and
// it is final: the owner hears of no end of the flow after it, even of one
// that has already happened but not yet been reported (a birth on a failed
// link, a zero-byte finish, or a later victim of the same FailLink). A flow
// may be cancelled only while it is its owner's: before the owner has heard
// how it ended, or from inside that callback, where Cancel changes nothing.
// Cancelling a flow the network has taken back (FlowOwner) panics. A
// cancelled flow's owner must drop it: the network takes it back at once,
// or once the event it still has pending fires. Read Delivered or Remaining
// before Cancel, not after.
func (n *Network) Cancel(f *Flow) {
	if f.free {
		panic(fmt.Sprintf("netsim: Cancel of flow %d after it was taken back", f.id))
	}
	if f.cancelled {
		return
	}
	f.cancelled = true
	if f.finished || f.interrupted {
		return // its report, if still to come, takes it back silently (Fire)
	}
	if f.pending {
		return // still in its latency delay; it will never join the links
	}
	f.settleTo(n.eng.Now()) // Delivered() stays exact for an ownerless flow's holder
	n.detachFlow(f)
	n.markDirty(f.path()...)
	n.recycle(f)
}

// recycle takes f back once its use is over — its owner has heard how it
// ended, or cancelled it and its last event is gone — for a later StartFlow
// to reuse. An ownerless flow is left to whoever holds it (FlowOwner).
// Taking back a flow that still has an event pending or is still on its
// links is a bug in the network, and panics.
func (n *Network) recycle(f *Flow) {
	if f.owner == nil {
		return
	}
	if f.done.Pending() || f.pending || n.joined(f) {
		panic(fmt.Sprintf("netsim: flow %d taken back while it still runs", f.id))
	}
	f.free = true
	n.flowArena.Free(f)
}

// joined reports whether f is on the network's active list.
func (n *Network) joined(f *Flow) bool {
	return int(f.netPos) < len(n.flows) && n.flows[f.netPos] == f
}

// component collects the connected component of links and flows reachable
// from the seed links (BFS alternating links → their flows → those flows'
// links) into compLinks/compFlows. Everything outside the component is
// untouched by the ensuing settle and solve.
func (n *Network) component(seeds ...*Link) {
	n.mark++
	m := n.mark
	links := n.compLinks[:0]
	flows := n.compFlows[:0]
	for _, l := range seeds {
		if l.mark != m {
			l.mark = m
			links = append(links, l)
		}
	}
	for i := 0; i < len(links); i++ {
		for _, f := range links[i].flows {
			if f.mark == m {
				continue
			}
			f.mark = m
			flows = append(flows, f)
			for _, l := range f.path() {
				if l.mark != m {
					l.mark = m
					links = append(links, l)
				}
			}
		}
	}
	n.compLinks, n.compFlows = links, flows
}

// settleComponent advances every component flow's byte accounting to now.
func (n *Network) settleComponent() {
	now := n.eng.Now()
	for _, f := range n.compFlows {
		f.settleTo(now)
	}
}

// attachFlow appends the flow to the active set and to every link of its
// path, recording each index in the flow. Membership is intrusive — there is
// no hash set to grow or rehash — so joining and leaving are O(path) and, once
// the lists have reached their working size, allocation-free. The lists are
// unordered; whatever depends on an order sorts by flow id (byFlowID).
func (n *Network) attachFlow(f *Flow) {
	f.netPos = int32(len(n.flows))
	n.flows = appendDoubling(n.flows, f)
	for i, l := range f.path() {
		*f.slot(i) = int32(len(l.flows))
		l.flows = appendDoubling(l.flows, f)
	}
}

// appendDoubling appends v to s, doubling s's capacity when it is full.
// append grows a long slice by a quarter at a time, so the lists that reach
// tens of thousands of entries (the source's uplink, the spines, the active
// set) would move ten times per eightfold growth; doubling moves them three
// times and allocates fewer bytes in all.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 1))
	}
	return append(s, v)
}

// detachFlow detaches a flow from its links and the active set and cancels
// its completion event: O(path), no touch of the component scratch.
func (n *Network) detachFlow(f *Flow) {
	last := len(n.flows) - 1
	moved := n.flows[last]
	n.flows[f.netPos] = moved
	moved.netPos = f.netPos
	n.flows[last] = nil
	n.flows = n.flows[:last]
	for i, l := range f.path() {
		l.unlist(*f.slot(i))
	}
	f.done.Cancel()
	f.done = sim.EventRef{}
}

// linkHeap is an indexed min-heap of links keyed by (fair share, name), so
// the top is always the current bottleneck and ties resolve by name —
// exactly the reference solver's scan order.
type linkHeap []*Link

func (h linkHeap) Len() int { return len(h) }
func (h linkHeap) Less(i, j int) bool {
	if h[i].share != h[j].share {
		return h[i].share < h[j].share
	}
	return h[i].name < h[j].name
}
func (h linkHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx = i
	h[j].hidx = j
}
func (h *linkHeap) Push(x any) {
	l := x.(*Link)
	l.hidx = len(*h)
	*h = append(*h, l)
}
func (h *linkHeap) Pop() any {
	old := *h
	n := len(old)
	l := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return l
}

// solveComponent stages the max-min fair rate of every component flow in
// nextRate by progressive filling: repeatedly freeze the flows of the
// current bottleneck at its fair share, charging the share against every
// shared link on each frozen flow's path. Fair shares only rise as filling
// proceeds, so eager heap fixes keep the top exact.
//
// Only hot links — those carrying two or more component flows — enter the
// bottleneck heap. A cold link can never arbitrate between flows, so it is
// folded into its single flow's composite private capacity pcap = min over
// the flow's cold links. Filling interleaves two sorted bottleneck sources —
// the hot-link heap keyed (share, name) and the composite-capped flows
// ordered (pcap, id) — always freezing at the smaller value, with exact ties
// going to the hot link (charging a link's own share leaves its residual
// share unchanged). A cold link binds its flow at exactly capacity/1, the
// share an unfolded heap would pop it at, so the committed rates are the
// reference solver's max-min allocation bit for bit (oracle.go;
// TestSolverMatchesOracle). Heap size and per-freeze charge cost follow the
// hot cut of the component, not the topology: in a fat-tree staging storm
// that is the handful of shared uplinks, while every leaf NIC folds away.
// O((F+H)·log H) for H hot links.
func (n *Network) solveComponent() {
	flows := n.compFlows
	if len(flows) == 0 {
		return
	}
	n.lheap = n.lheap[:0]
	for _, l := range n.compLinks {
		if len(l.flows) < 2 {
			l.hidx = -1 // cold: folded into its flow's pcap below
			continue
		}
		l.residual = l.capacity
		l.unfrozen = len(l.flows)
		l.updateShare()
		l.hidx = len(n.lheap)
		n.lheap = append(n.lheap, l)
	}
	heap.Init(&n.lheap)
	byCap := n.capScratch[:0]
	for _, f := range flows {
		f.frozen = false
		pc := math.Inf(1)
		for _, l := range f.path() {
			if len(l.flows) < 2 && l.capacity < pc {
				pc = l.capacity
			}
		}
		f.pcap = pc
		if !math.IsInf(pc, 1) {
			byCap = append(byCap, f)
		}
	}
	slices.SortFunc(byCap, func(a, b *Flow) int {
		if c := cmp.Compare(a.pcap, b.pcap); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	n.capScratch = byCap
	remaining := len(flows)
	ci := 0
	for remaining > 0 {
		for ci < len(byCap) && byCap[ci].frozen {
			ci++
		}
		linkShare := math.Inf(1)
		if len(n.lheap) > 0 {
			linkShare = n.lheap[0].share
		}
		if ci < len(byCap) && byCap[ci].pcap < linkShare {
			// The tightest private capacity (always finite) binds before
			// any shared link does.
			n.freeze(byCap[ci], byCap[ci].pcap)
			remaining--
			ci++
			continue
		}
		if math.IsInf(linkShare, 1) {
			// Neither a shared bottleneck nor a private capacity is left
			// yet flows remain — cannot occur with positive capacities;
			// starve the leftovers defensively.
			for _, f := range flows {
				if !f.frozen {
					f.frozen = true
					f.nextRate = 0
				}
			}
			return
		}
		top := n.lheap[0]
		best := top.share
		for _, f := range top.flows {
			if !f.frozen {
				n.freeze(f, best)
				remaining--
			}
		}
	}
}

// freeze fixes f's rate for this solve and charges it against the hot links
// on its path; cold links are shared with nobody, so there is no charge to
// track on them.
func (n *Network) freeze(f *Flow, rate float64) {
	f.frozen = true
	f.nextRate = rate
	for _, l := range f.path() {
		if l.hidx < 0 {
			continue
		}
		l.residual -= rate
		if l.residual < 0 {
			l.residual = 0
		}
		l.unfrozen--
		l.updateShare()
		heap.Fix(&n.lheap, l.hidx)
	}
}

// applyRates commits the staged rates, rescheduling completions only for
// flows whose rate actually changed: an untouched flow's event time
// t₀ + remaining(t₀)·8/rate is still exact. Changed flows are visited in
// flow-id order so same-time completions stay deterministic across runs.
func (n *Network) applyRates() {
	flows := n.compFlows
	slices.SortFunc(flows, byFlowID)
	for _, f := range flows {
		r := f.nextRate
		if r == f.rate && (f.done.Pending() || r <= 0) {
			continue // allocation unchanged; the scheduled completion holds
		}
		f.rate = r
		f.done.Cancel()
		f.done = sim.EventRef{}
		if r <= 0 {
			continue // starved (should not happen with positive capacities)
		}
		eta := sim.Duration(f.remaining * 8 / r)
		f.done = n.eng.ScheduleHandler(eta, f)
	}
	if n.tracer != nil {
		n.traceLinkRates()
	}
}

// traceLinkRates emits one counter event per component link whose utilised
// rate changed in the solve that just committed. Links are visited in name
// order and rates summed in flow-id order (UtilisedBps), so the emitted
// stream is deterministic. The solve is over, so the component scratch can be
// sorted where it lies.
func (n *Network) traceLinkRates() {
	slices.SortFunc(n.compLinks, func(a, b *Link) int { return cmp.Compare(a.name, b.name) })
	for _, l := range n.compLinks {
		bps := l.UtilisedBps()
		if bps == l.tracedBps {
			continue
		}
		l.tracedBps = bps
		n.tracer.Counter(l.name, "utilised_bps", bps)
	}
}

// complete finishes a flow at the current virtual time.
func (f *Flow) complete() {
	n := f.net()
	f.done = sim.EventRef{} // the completion event just fired
	// The flow's rate has been constant since the last rebalance (any change
	// would have rescheduled this event), so settling just this flow is
	// exact — no component settle needed.
	f.settleTo(n.eng.Now())
	if f.remaining > completionEpsilon && f.rate > 0 &&
		f.remaining*8/f.rate > minRescheduleEta {
		// A genuine early fire (rates changed underneath the event);
		// reschedule the real completion from the settled residual.
		f.done = n.eng.ScheduleHandler(sim.Duration(f.remaining*8/f.rate), f)
		return
	}
	f.finished = true
	f.remaining = 0
	n.BytesMoved += f.bytes
	n.FlowsCompleted++
	n.detachFlow(f)
	n.markDirty(f.path()...)
	if f.owner != nil {
		f.owner.FlowDone(f)
	}
	n.recycle(f)
}
