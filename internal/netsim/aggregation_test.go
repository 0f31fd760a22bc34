package netsim

import (
	"math/rand"
	"testing"

	"frieda/internal/sim"
)

// buildTreeNet constructs a fresh oversubscribed fat-tree populated with
// nHosts hosts.
func buildTreeNet(t *testing.T, nHosts int) (*sim.Engine, *Network, *Topology, []*Host) {
	t.Helper()
	eng := sim.NewEngine()
	net := New(eng)
	tr, err := NewTree(net, TreeSpec{HostsPerRack: 4, Spines: 2, Oversubscription: 4})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*Host, nHosts)
	for i := range hosts {
		hosts[i] = net.NewHost(hostName("h", i), Mbps(100), Mbps(100))
		tr.Attach(hosts[i])
	}
	return eng, net, tr, hosts
}

// stepRebalanced runs the engine to the end one event at a time. After every
// event it checks the flow lists (checkMembership); after every event that
// leaves no rebalance pending it checks the rates against the reference
// solver (oracle.go) and then calls settled, if non-nil. No rebalance
// pending is the state every event at a later instant sees: between a flow
// start, finish or cancel and its instant's rebalance the rates are due, not
// final, so an event at a later instant that runs while one is still pending
// fails too. where prefixes the failure messages; a run that checks no
// event fails.
func stepRebalanced(t testing.TB, eng *sim.Engine, net *Network, links []*Link, where string, settled func()) {
	t.Helper()
	checked := 0
	pendingAt, pending := sim.Time(0), false
	for step := 1; eng.Step(); step++ {
		checkMembership(t, net, links)
		if pending && eng.Now() > pendingAt {
			t.Fatalf("%s step %d (t=%v): runs with the rebalance of t=%v still pending", where, step, eng.Now(), pendingAt)
		}
		if pending = net.rebalanceOn; pending {
			pendingAt = eng.Now()
			continue
		}
		checked++
		if f, got, want, ok := net.checkRatesAgainstReference(); !ok {
			t.Fatalf("%s step %d (t=%v): flow %d rate %v, reference %v", where, step, eng.Now(), f.id, got, want)
		}
		if settled != nil {
			settled()
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no event left the rates settled", where)
	}
}

// The solver folds cold links (fewer than two flows) into per-flow composite
// capacities and keeps only hot links in its bottleneck heap; the committed
// rates must nevertheless be exactly the reference whole-network solver's
// (oracle.go) after every event that leaves no rebalance pending
// (stepRebalanced). The three fabrics put the fold at its extremes: a tree
// storm where links cross between hot and cold as flows come and go, a flat
// fabric where every link in use is shared (nothing folds, the heap does all
// the work), and disjoint host pairs where every link is cold (the heap
// stays empty).
func TestSolverMatchesOracle(t *testing.T) {
	// stepAndCheck drains the engine, comparing against the oracle after
	// every event that leaves the rates settled. wantCold is the share of
	// flow-carrying links that must be cold at the first such check with
	// flows in flight: 0 (none), 1 (all) or -1 (don't care).
	stepAndCheck := func(t *testing.T, eng *sim.Engine, net *Network, links []*Link, wantCold float64) {
		t.Helper()
		checkedMix := wantCold < 0
		stepRebalanced(t, eng, net, links, t.Name(), func() {
			if checkedMix || len(net.flows) == 0 {
				return
			}
			checkedMix = true
			var cold, used float64
			for _, l := range links {
				if len(l.flows) > 0 {
					used++
					if len(l.flows) < 2 {
						cold++
					}
				}
			}
			if cold/used != wantCold {
				t.Fatalf("fabric does not exercise the intended case: %v of %v used links are cold", cold, used)
			}
		})
		if !checkedMix {
			t.Fatal("no settled event had flows in flight")
		}
		if len(net.flows) != 0 {
			t.Fatalf("%d flows never drained", len(net.flows))
		}
	}

	t.Run("tree", func(t *testing.T) {
		const nHosts, nFlows = 16, 120
		eng, net, tr, hosts := buildTreeNet(t, nHosts)
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < nFlows; i++ {
			src := rng.Intn(nHosts)
			dst := rng.Intn(nHosts - 1)
			if dst >= src {
				dst++
			}
			bytes := float64(rng.Intn(40e6) + 1e6)
			p := tr.Path(hosts[src], hosts[dst])
			eng.Schedule(sim.Duration(rng.Float64()*10), func() { net.StartFlow(bytes, p, nil) })
		}
		stepAndCheck(t, eng, net, netLinks(tr, hosts), -1)
	})

	t.Run("flat-all-shared", func(t *testing.T) {
		// Two senders, two receivers, one fabric; every sender→receiver pair
		// carries two flows of different sizes, so at the start each uplink
		// and downlink carries four flows and the fabric eight.
		eng := sim.NewEngine()
		net := New(eng)
		fabric := net.NewFabric("fabric", Mbps(150))
		hosts := make([]*Host, 4)
		for i := range hosts {
			hosts[i] = net.NewHost(hostName("h", i), Mbps(100), Mbps(60+20*float64(i)))
		}
		eng.Schedule(0, func() {
			for i := 0; i < 8; i++ {
				net.Transfer(hosts[i%2], hosts[2+(i/2)%2], fabric, float64(i+1)*3e6, nil)
			}
		})
		stepAndCheck(t, eng, net, netLinks(nil, hosts, fabric.Link()), 0)
	})

	t.Run("all-cold", func(t *testing.T) {
		// Disjoint pairs with unequal NICs: no link ever carries two flows.
		eng := sim.NewEngine()
		net := New(eng)
		var hosts []*Host
		for i := 0; i < 6; i++ {
			src := net.NewHost(hostName("s", i), Mbps(50+10*float64(i)), Mbps(100))
			dst := net.NewHost(hostName("d", i), Mbps(100), Mbps(110-15*float64(i)))
			hosts = append(hosts, src, dst)
			bytes := float64(i+1) * 2e6
			eng.Schedule(sim.Duration(float64(i)*0.1), func() { net.Transfer(src, dst, nil, bytes, nil) })
		}
		stepAndCheck(t, eng, net, netLinks(nil, hosts), 1)
	})
}

// A flow start and its completion, at steady state, cost at most two
// allocations — in fact only the flow's share of an arena chunk, since the
// engine reuses its events — none of them the solver's and none of them
// membership. The solver keeps
// its heap and orderings in Network scratch and sorts with typed comparisons; joining and leaving the flow lists is an append and a
// swap-remove on slices that have reached their working size; and join is a
// method, not a closure over the flow, the network and the path. A regression
// on any of those shows up here before it shows up as mallocs_per_op on a
// sim_* workload. The flat case is sim_paper's (two-link path), the tree
// case sim_scale's (five-link inter-rack path).
func TestSolveSteadyStateAllocs(t *testing.T) {
	measure := func(eng *sim.Engine, net *Network, path []*Link) float64 {
		one := func() {
			net.StartFlow(1e6, path, nil)
			eng.Run()
		}
		one() // grow the scratch slices and the flow lists once
		return testing.AllocsPerRun(200, one)
	}
	t.Run("flat", func(t *testing.T) {
		eng := sim.NewEngine()
		net := New(eng)
		hosts := make([]*Host, 4)
		for i := range hosts {
			hosts[i] = net.NewHost(hostName("h", i), Mbps(100), Mbps(100))
		}
		if got := measure(eng, net, AppendPath(nil, hosts[0], hosts[1], nil)); got > 2 {
			t.Fatalf("one start+complete allocates %v times, want <= 2", got)
		}
	})
	t.Run("tree", func(t *testing.T) {
		eng, net, tr, hosts := buildTreeNet(t, 8)
		path := tr.Path(hosts[0], hosts[7])
		if len(path) != MaxRoute {
			t.Fatalf("inter-rack path has %d links, want %d", len(path), MaxRoute)
		}
		if got := measure(eng, net, path); got > 2 {
			t.Fatalf("one start+complete allocates %v times, want <= 2", got)
		}
	})
}

// Rates must satisfy the reference whole-network solver across churn,
// including cancellations — the fold/unfold transitions as links go
// from shared to private to empty and back.
func TestFoldedOracleUnderCancellation(t *testing.T) {
	const nHosts, nFlows = 12, 80
	eng, net, tr, hosts := buildTreeNet(t, nHosts)
	rng := rand.New(rand.NewSource(5))
	flows := make([]*Flow, nFlows)
	for i := 0; i < nFlows; i++ {
		src := rng.Intn(nHosts)
		dst := rng.Intn(nHosts - 1)
		if dst >= src {
			dst++
		}
		bytes := float64(rng.Intn(50e6) + 5e6)
		start := sim.Duration(rng.Float64() * 15)
		i := i
		eng.Schedule(start, func() {
			flows[i] = net.StartFlow(bytes, tr.Path(hosts[src], hosts[dst]), nil)
		})
	}
	// Cancel a third of the flows mid-run; each cancellation unfolds the
	// victim's private links back to empty and re-rates survivors.
	for i := 0; i < nFlows; i += 3 {
		i := i
		eng.Schedule(sim.Duration(16+rng.Float64()*10), func() {
			if f := flows[i]; f != nil {
				net.Cancel(f)
			}
		})
	}
	for _, at := range []float64{8, 20, 30, 50} {
		eng.Schedule(sim.Duration(at), func() {
			if f, got, want, ok := net.checkRatesAgainstReference(); !ok {
				t.Fatalf("t=%v flow %d: rate %v, reference %v", eng.Now(), f.id, got, want)
			}
		})
	}
	eng.Run()
	if len(net.flows) != 0 {
		t.Fatalf("%d flows never drained", len(net.flows))
	}
}

// A link failure re-rates the survivors like a flow finish does: at the
// instant's rebalance (markDirty). The victims are off their links, and
// their owners have heard, when FailLink returns; until the rebalance the
// survivors keep their old rates, and an event queued at the same instant
// after the failure sees them re-rated. Two 800 Mb flows share the source's
// 100 Mbps uplink; at t=1 each has sent 50 Mb, one loses its downlink there,
// and the survivor's remaining 750 Mb take 7.5 s at the full 100 Mbps.
func TestFailLinkReratesAtItsInstant(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	a := net.NewHost("a", Mbps(100), Mbps(100))
	b := net.NewHost("b", Mbps(100), Mbps(100))
	interruptedAt, delivered := sim.Time(-1), -1.0
	var done sim.Time
	var survivor *Flow
	rateBefore, rateAfter := -1.0, -1.0
	eng.Schedule(0, func() {
		net.StartFlow(100e6, AppendPath(nil, src, a, nil), &ends{intr: func(d float64, at sim.Time) { delivered, interruptedAt = d, at }})
		survivor = net.StartFlow(100e6, AppendPath(nil, src, b, nil), onDone(func(at sim.Time) { done = at }))
	})
	eng.Schedule(1, func() {
		net.FailLink(a.Down())
		if interruptedAt != 1 || len(net.flows) != 1 {
			t.Fatalf("FailLink returned with the victim's owner told at %v and %d flows active", interruptedAt, len(net.flows))
		}
		rateBefore = survivor.Rate()
		eng.Schedule(0, func() { rateAfter = survivor.Rate() })
	})
	eng.Run()
	if rateBefore != Mbps(50) || rateAfter != Mbps(100) {
		t.Fatalf("survivor at %v inside the failing event and %v after it, want %v then %v",
			rateBefore, rateAfter, Mbps(50), Mbps(100))
	}
	if interruptedAt != 1 || delivered != 6.25e6 {
		t.Fatalf("interrupted at %v with %v bytes delivered, want t=1 and 6.25e6", interruptedAt, delivered)
	}
	if done != 8.5 {
		t.Fatalf("survivor done at %v, want 8.5", done)
	}
	if net.FlowsInterrupted != 1 || net.FlowsCompleted != 1 {
		t.Fatalf("interrupted=%d completed=%d", net.FlowsInterrupted, net.FlowsCompleted)
	}
}

// DegradeLink and RestoreLink mid-flow re-rate the flows crossing the link
// at the instant's rebalance, so an event queued at the same instant after
// the degrade sees the degraded rate, and the completion time is the
// analytic one. 800 Mb: 2 s at 100 Mbps, degraded to 25 Mbps at t=2,
// restored at t=10: 200 + 200 + 400 Mb legs, finishing at t=14.
func TestDegradeReratesAtItsInstant(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	var f *Flow
	var done sim.Time
	rateAfter := -1.0
	eng.Schedule(0, func() {
		f = net.StartFlow(100e6, AppendPath(nil, src, dst, nil), onDone(func(at sim.Time) { done = at }))
	})
	eng.Schedule(2, func() {
		net.DegradeLink(dst.Down(), 0.25)
		eng.Schedule(0, func() { rateAfter = f.Rate() })
	})
	eng.Schedule(10, func() { net.RestoreLink(dst.Down()) })
	eng.Run()
	if rateAfter != Mbps(25) {
		t.Fatalf("rate after the degrade's instant = %v, want %v", rateAfter, Mbps(25))
	}
	if done != 14 {
		t.Fatalf("done at %v, want 14", done)
	}
}
