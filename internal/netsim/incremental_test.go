package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"frieda/internal/sim"
)

// buildRandomChurn wires a random topology (random link capacities, random
// multi-link paths, random flow sizes and start times, random cancels) onto
// a fresh engine. It returns the network and its links. Everything is driven
// by the seeded rng, so a seed fully determines the run.
func buildRandomChurn(seed int64) (*sim.Engine, *Network, []*Link) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	net := New(eng)

	nLinks := rng.Intn(8) + 1
	links := make([]*Link, nLinks)
	for i := range links {
		links[i] = net.NewLink("l"+string(rune('A'+i)), Mbps(float64(rng.Intn(900)+100)))
	}
	nFlows := rng.Intn(16) + 1
	for i := 0; i < nFlows; i++ {
		// A random non-empty subset of links in random order.
		perm := rng.Perm(nLinks)
		path := make([]*Link, 0, nLinks)
		for _, li := range perm[:rng.Intn(nLinks)+1] {
			path = append(path, links[li])
		}
		bytes := float64(rng.Intn(20e6) + 1e5)
		start := sim.Duration(rng.Float64() * 3)
		eng.Schedule(start, func() {
			f := net.StartFlow(bytes, path, nil)
			if rng.Intn(4) == 0 {
				eng.Schedule(sim.Duration(rng.Float64()*2), func() { net.Cancel(f) })
			}
		})
	}
	return eng, net, links
}

// Property: across ≥1000 random topologies, after every event that leaves
// no rebalance pending (stepRebalanced) the incremental component-scoped
// allocator's live rate vector is EXACTLY the reference whole-network
// solver's — same floats, not approximately equal. The solvers share
// arithmetic and tie-breaks by construction; this pins that contract.
func TestIncrementalMatchesReferenceProperty(t *testing.T) {
	const topologies = 1000
	for seed := int64(0); seed < topologies; seed++ {
		eng, net, links := buildRandomChurn(seed)
		stepRebalanced(t, eng, net, links, fmt.Sprintf("seed %d", seed), nil)
		if len(net.flows) != 0 {
			t.Fatalf("seed %d: %d flows never finished", seed, len(net.flows))
		}
	}
}

// Determinism guard: two runs with the same seed must produce identical
// completion sequences — same order, same bit-identical times.
func TestChurnDeterminism(t *testing.T) {
	type comp struct {
		at    sim.Time
		bytes float64
	}
	run := func(seed int64) []comp {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		net := New(eng)
		src := net.NewHost("src", Mbps(1000), Mbps(1000))
		var trace []comp
		for i := 0; i < 64; i++ {
			dst := net.NewHost("d"+string(rune('a'+i%26))+string(rune('a'+i/26)), Mbps(300), Mbps(300))
			bytes := float64(rng.Intn(10e6) + 1e5)
			start := sim.Duration(rng.Float64() * 4)
			eng.Schedule(start, func() {
				net.Transfer(src, dst, nil, bytes, func(at sim.Time) {
					trace = append(trace, comp{at, bytes})
				})
			})
		}
		eng.Run()
		return trace
	}
	for seed := int64(1); seed <= 20; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: completion counts differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: completion %d differs: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
	}
}

// Components must stay independent: churn in one component never touches
// flows in another, so an isolated flow's completion time is bit-identical
// with and without unrelated traffic elsewhere in the network.
func TestComponentIsolation(t *testing.T) {
	run := func(extraComponent bool) sim.Time {
		eng := sim.NewEngine()
		net := New(eng)
		s1 := net.NewHost("s1", Mbps(100), Mbps(100))
		d1 := net.NewHost("d1", Mbps(100), Mbps(100))
		var done sim.Time
		net.Transfer(s1, d1, nil, 25e6, func(at sim.Time) { done = at })
		if extraComponent {
			s2 := net.NewHost("s2", Mbps(100), Mbps(100))
			d2 := net.NewHost("d2", Mbps(100), Mbps(100))
			// Heavy churn in the second component while the first transfers.
			for i := 0; i < 8; i++ {
				start := sim.Duration(float64(i) * 0.2)
				eng.Schedule(start, func() {
					net.Transfer(s2, d2, nil, 1e6, nil)
				})
			}
		}
		eng.Run()
		return done
	}
	if alone, contended := run(false), run(true); alone != contended {
		t.Fatalf("unrelated churn moved an isolated flow's completion: %v vs %v", alone, contended)
	}
}

// Remaining must settle itself: no Network.Settle call, mid-transfer, the
// accessor reports the up-to-the-instant residual.
func TestRemainingSettlesItself(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	s := net.NewHost("s", Mbps(100), Mbps(100))
	d := net.NewHost("d", Mbps(100), Mbps(100))
	f := net.Transfer(s, d, nil, 25e6, nil)
	eng.Schedule(1, func() {
		// 1 s at 100 Mbps = 12.5 MB sent.
		if got := f.Remaining(); !almost(got, 12.5e6) {
			t.Fatalf("Remaining() = %v mid-transfer, want 12.5e6", got)
		}
	})
	eng.Run()
	if got := f.Remaining(); got != 0 {
		t.Fatalf("Remaining() = %v after completion, want 0", got)
	}
	if !f.finished {
		t.Fatal("flow not finished")
	}
}

// A cancel-heavy netsim run must keep the engine heap bounded by the live
// flow count: rescheduling no longer leaves dead events queued.
func TestReallocationKeepsHeapBounded(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	const flows = 64
	for i := 0; i < flows; i++ {
		dst := net.NewHost("w"+string(rune('a'+i%26))+string(rune('0'+i/26)), Mbps(100), Mbps(100))
		start := sim.Duration(float64(i) * 0.05)
		eng.Schedule(start, func() { net.Transfer(src, dst, nil, 5e6, nil) })
	}
	for eng.Step() {
		// Live events: at most one completion per active flow plus the
		// not-yet-delivered start events. Dead events would exceed this.
		if max := len(net.flows) + flows; eng.Pending() > max {
			t.Fatalf("heap holds %d events with %d active flows", eng.Pending(), len(net.flows))
		}
	}
	if net.FlowsCompleted != flows {
		t.Fatalf("completed %d flows, want %d", net.FlowsCompleted, flows)
	}
}
