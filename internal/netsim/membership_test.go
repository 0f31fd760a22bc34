package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"frieda/internal/sim"
)

// checkMembership asserts the intrusive flow lists: every flow in
// Network.flows is live and sits at the index it records, there and in the
// list of each link of its path; and the links hold no entry besides those,
// so no list names a flow twice or keeps a finished, cancelled or interrupted
// one. (A path never repeats a link, so a live flow's entries are len(path)
// distinct slots; equal totals leave room for no other.) links must be every
// link the test built: the network keeps no list of its own (netLinks).
func checkMembership(t testing.TB, n *Network, links []*Link) {
	t.Helper()
	entries := 0
	for i, f := range n.flows {
		if f.finished || f.cancelled || f.interrupted || f.pending {
			t.Fatalf("flow %d is listed but not live (finished %v, cancelled %v, interrupted %v, pending %v)",
				f.id, f.finished, f.cancelled, f.interrupted, f.pending)
		}
		if int(f.netPos) != i {
			t.Fatalf("flow %d is at Network.flows[%d] but records %d", f.id, i, f.netPos)
		}
		for k, l := range f.path() {
			if p := int(*f.slot(k)); p >= len(l.flows) || l.flows[p] != f {
				t.Fatalf("flow %d records index %d on link %s (%d flows) and is not there", f.id, p, l.name, len(l.flows))
			}
		}
		entries += len(f.path())
	}
	onLinks := 0
	for _, l := range links {
		onLinks += len(l.flows)
	}
	if onLinks != entries {
		t.Fatalf("links list %d flow entries, the %d live flows account for %d", onLinks, len(n.flows), entries)
	}
}

// netLinks lists the links a test built: each host's NIC pair and, given a
// topology, every rack's ToR pair and every spine, then any extra links.
func netLinks(tr *Topology, hosts []*Host, extra ...*Link) []*Link {
	var links []*Link
	for _, h := range hosts {
		links = append(links, h.up, h.down)
	}
	if tr != nil {
		for _, r := range tr.racks {
			links = append(links, r.up, r.down)
		}
		links = append(links, tr.spines...)
	}
	return append(links, extra...)
}

// Every way a flow can leave its lists, mixed: completion, Cancel (joined and
// still in its latency delay), FailLink (joined and at join time) and
// completions whose callback starts the next flow, over paths of one to nine
// links so that both the inline slots and the spill are swap-removed and
// fixed up; and every other operation that re-rates the network
// (RestoreLink, DegradeLink, SetCapacity). Membership must hold after every
// event, and the rates must be the oracle's after every event that leaves no
// rebalance pending.
func TestMembershipUnderChurn(t *testing.T) {
	var completed, interrupted, cancelled, chained, long uint64
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		net := New(eng)
		links := make([]*Link, 12)
		for i := range links {
			links[i] = net.NewLink(hostName("l", i), Mbps(float64(rng.Intn(900)+100)))
			if rng.Intn(4) == 0 {
				links[i].SetLatency(sim.Duration(rng.Float64() * 0.2))
			}
		}
		var flows []*Flow
		var start func(depth int)
		start = func(depth int) {
			path := make([]*Link, 0, 9)
			for _, li := range rng.Perm(len(links))[:rng.Intn(9)+1] {
				path = append(path, links[li])
			}
			if len(path) > MaxRoute {
				long++
			}
			// A flow leaves the cancel candidates when its owner hears
			// how it ended: the network takes it back then.
			k := len(flows)
			f := net.StartFlow(float64(rng.Intn(20e6)+1e5), path, &ends{
				done: func(sim.Time) {
					flows[k] = nil
					if depth < 3 && rng.Intn(2) == 0 {
						chained++
						start(depth + 1)
					}
				},
				intr: func(float64, sim.Time) { flows[k] = nil; interrupted++ },
			})
			flows = append(flows, f)
		}
		for i := 0; i < 24; i++ {
			eng.Schedule(sim.Duration(rng.Float64()*4), func() { start(0) })
		}
		for i := 0; i < 8; i++ {
			eng.Schedule(sim.Duration(rng.Float64()*5), func() {
				if len(flows) == 0 {
					return
				}
				if k := rng.Intn(len(flows)); flows[k] != nil {
					cancelled++
					net.Cancel(flows[k])
					flows[k] = nil
				}
			})
		}
		for i := 0; i < 4; i++ {
			l := links[rng.Intn(len(links))]
			at := sim.Duration(rng.Float64() * 4)
			eng.Schedule(at, func() { net.FailLink(l) })
			eng.Schedule(at+sim.Duration(rng.Float64()), func() { net.RestoreLink(l) })
		}
		for i := 0; i < 4; i++ {
			l := links[rng.Intn(len(links))]
			at := sim.Duration(rng.Float64() * 4)
			factor, bps := rng.Float64()*0.9+0.1, Mbps(float64(rng.Intn(900)+100))
			eng.Schedule(at, func() { net.DegradeLink(l, factor) })
			eng.Schedule(at+sim.Duration(rng.Float64()), func() { net.SetCapacity(l, bps) })
		}
		stepRebalanced(t, eng, net, links, fmt.Sprintf("seed %d", seed), nil)
		if len(net.flows) != 0 {
			t.Fatalf("seed %d: %d flows never left", seed, len(net.flows))
		}
		for _, l := range links {
			if len(l.flows) != 0 {
				t.Fatalf("seed %d: link %s still lists %d flows", seed, l.Name(), len(l.flows))
			}
		}
		completed += net.FlowsCompleted
	}
	for what, n := range map[string]uint64{"completions": completed, "interrupts": interrupted,
		"cancels": cancelled, "callback starts": chained, "paths over five links": long} {
		if n == 0 {
			t.Errorf("the churn produced no %s", what)
		}
	}
}

// Swap-remove finds the moved flow's slot by scanning its path for the link,
// so a path may not name a link twice; StartFlow refuses one.
func TestStartFlowRejectsRepeatedLink(t *testing.T) {
	net := New(sim.NewEngine())
	a := net.NewLink("a", Mbps(100))
	b := net.NewLink("b", Mbps(100))
	for _, path := range [][]*Link{{a, a}, {a, b, a}, {b, a, b, a}} {
		mustPanic(t, fmt.Sprintf("path of %d links repeating one", len(path)), func() {
			net.StartFlow(1e6, path, nil)
		})
	}
	if len(net.flows) != 0 || len(a.flows) != 0 || len(b.flows) != 0 {
		t.Fatal("a rejected path left a flow behind")
	}
}

// A Flow is made once per transfer the network cannot take back, so its size
// is part of alloc_bytes_per_op on every sim_* workload whose flows are all
// live at once. It comes from the network's arena at its exact 184 bytes;
// the bound is the 192-byte size class it
// kept when it was allocated alone. The flow holds its path (five links)
// and its owner in place of a path slice header and three callbacks, and
// finds its network through its first link.
func TestFlowStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Flow{}); size > 192 {
		t.Fatalf("Flow is %d bytes, over the 192-byte size class", size)
	}
}

// completions is a FlowOwner that counts finishes and allocates nothing.
type completions int

func (c *completions) FlowDone(*Flow)                 { *c++ }
func (c *completions) FlowInterrupted(*Flow, float64) {}

// A flow started on a route built in a stack buffer and run to completion
// allocates nothing: StartFlow takes the Flow from the network's arena and
// copies the route into it, the owner is the caller's own record, the flow
// is its events' handler — no path slice, no completion closure, no method
// value — the engine reuses its events, and once the owner has heard of the
// finish the network takes the flow back for the next StartFlow. A run of
// 10,000 flows measures 0 allocations (112, 0.0112 per flow, when every
// flow took a share of a new chunk); the bound is one allocation per run.
// The flat flow runs on a two-link path as the paper's testbed runs it, the
// 5-link tree flow (two racks, a spine, link latency) as the scale sweep
// runs it.
func TestStartFlowAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var done completions

	flatEng := sim.NewEngine()
	flatNet := New(flatEng)
	src := flatNet.NewHost("src", Mbps(100), Mbps(100))
	dst := flatNet.NewHost("dst", Mbps(100), Mbps(100))
	flat := func() {
		var buf [MaxRoute]*Link
		flatNet.StartFlow(1e6, AppendPath(buf[:0], src, dst, nil), &done)
		flatEng.Run()
	}

	treeEng := sim.NewEngine()
	treeNet := New(treeEng)
	tr, err := NewTree(treeNet, TreeSpec{HostsPerRack: 1, Spines: 2, LatencySec: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	a := treeNet.NewHost("a", Mbps(100), Mbps(100))
	b := treeNet.NewHost("b", Mbps(100), Mbps(100))
	tr.Attach(a)
	tr.Attach(b)
	if n := len(tr.Path(a, b)); n != MaxRoute {
		t.Fatalf("inter-rack route has %d links, want %d", n, MaxRoute)
	}
	tree := func() {
		var buf [MaxRoute]*Link
		treeNet.StartFlow(1e6, tr.AppendPath(buf[:0], a, b), &done)
		treeEng.Run()
	}

	const flows = 10_000
	for _, c := range []struct {
		name string
		run  func()
	}{{"flat", flat}, {"tree", tree}} {
		before := done
		many := func() {
			for i := 0; i < flows; i++ {
				c.run()
			}
		}
		many() // warm-up: link lists, solver scratch and the engine's events reach their size
		per := testing.AllocsPerRun(5, many) / flows
		t.Logf("%s flow: %.4f allocations from start to finish", c.name, per)
		if per > 1.0/flows {
			t.Errorf("%s flow allocates %.4f times from start to finish, want <= %.4f (a flow taken back costs nothing)",
				c.name, per, 1.0/flows)
		}
		if got := done - before; got != 7*flows {
			t.Errorf("%s: %d completions, want %d", c.name, got, 7*flows)
		}
	}
}
