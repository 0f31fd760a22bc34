package netsim

import (
	"math/rand"
	"strconv"
	"testing"

	"frieda/internal/sim"
)

// runTreeStorm replays the datacenter staging storm on a fat-tree like the
// one cloud.Options.Topology builds: one master in rack 0 pushes
// an input volume to every one of nWorkers workers spread across the tree.
// Starts are staggered in epochs so arrivals and completions interleave —
// the same regime the 65k-worker BLAST sweep puts the allocator in, where
// every worker downlink is a cold link and the master uplink is the one hot
// cut the solver must visit.
func runTreeStorm(b *testing.B, nWorkers int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	net := New(eng)
	tr, err := NewTree(net, TreeSpec{HostsPerRack: 32, Spines: 8, Oversubscription: 4})
	if err != nil {
		b.Fatal(err)
	}
	master := net.NewHost("master", Mbps(1000), Mbps(1000))
	tr.Attach(master)
	workers := make([]*Host, nWorkers)
	for i := range workers {
		workers[i] = net.NewHost("w"+strconv.Itoa(i), Mbps(100), Mbps(100))
		tr.Attach(workers[i])
	}
	// Epoch length ~ time for one epoch's flows (mean 10.5 MB) to clear the
	// master uplink with 20% headroom, keeping a few hundred flows in flight
	// at any instant regardless of N. Without the headroom the uplink is
	// over-driven and the backlog — and with it the hot component the solver
	// visits per completion — grows linearly over the run.
	const epochFlows = 256
	epochSec := float64(epochFlows) * 10.5e6 * 8 / (0.8 * Mbps(1000))
	for i, w := range workers {
		bytes := float64(rng.Intn(19e6) + 1e6)
		path := tr.Path(master, w)
		start := sim.Duration(float64(i/epochFlows)*epochSec + rng.Float64()*epochSec)
		eng.Schedule(start, func() {
			net.StartFlow(bytes, path, nil)
		})
	}
	eng.Run()
	if net.FlowsCompleted != uint64(nWorkers) {
		b.Fatalf("completed %d flows, want %d", net.FlowsCompleted, nWorkers)
	}
}

func benchmarkTree(b *testing.B, nWorkers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runTreeStorm(b, nWorkers, 42)
	}
}

func BenchmarkNetsimTree4k(b *testing.B)  { benchmarkTree(b, 4096) }
func BenchmarkNetsimTree16k(b *testing.B) { benchmarkTree(b, 16384) }
func BenchmarkNetsimTree64k(b *testing.B) { benchmarkTree(b, 65536) }
