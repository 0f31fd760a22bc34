package cloud

import (
	"fmt"
	"testing"

	"frieda/internal/netsim"
	"frieda/internal/sim"
)

// Provision builds a batch one slab per kind, and each VM is the handler of
// its own boot event. On a tree cluster 1,024 VMs cost 14 objects — VMs,
// hosts, NIC links and their flow-list entries, ToR links and theirs, disks,
// names, the returned list and the cluster's — rather than one or more per
// VM; the bound is that plus 2%.
func TestProvisionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, runs, limit = 1024, 10, 14 * 1.02
	spec := netsim.TreeSpec{HostsPerRack: 32, Spines: 8, Oversubscription: 4}
	// Fresh clusters on one engine, built beforehand, so what is counted is
	// Provision alone; the first (warm-up) run sizes the engine's queue and
	// its event chunks, to whose free list booting returns the events.
	eng := sim.NewEngine()
	clusters := make([]*Cluster, runs+1)
	for i := range clusters {
		clusters[i] = New(eng, Options{Seed: 1, InstantBoot: true, Topology: &spec})
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := clusters[next].Provision(n, C1XLarge); err != nil {
			t.Fatal(err)
		}
		next++
		eng.RunUntil(eng.Now())
	})
	t.Logf("Provision(%d) makes %v allocations", n, allocs)
	if allocs > limit {
		t.Fatalf("Provision(%d) on a tree makes %v allocations, want <= %v", n, allocs, limit)
	}
}

// Every name in a provisioned cluster derives from a unique index, which is
// why netsim keeps no name index to catch duplicates. Across several
// Provision calls, VM and host names are vm-<id>, NIC links vm-<id>/up and
// vm-<id>/down, local disks vm-<id>/local, and no two links share a name —
// ToR and spine links on a tree, the fabric on a flat cluster.
func TestProvisionedNamesAreDistinct(t *testing.T) {
	spec := netsim.TreeSpec{HostsPerRack: 4, Spines: 3}
	for _, tc := range []struct {
		name  string
		opts  Options
		links int // NICs, plus 32 racks' ToR pairs and 3 spines, or the fabric
	}{
		{"tree", Options{Seed: 1, InstantBoot: true, Topology: &spec}, 2*125 + 2*32 + 3},
		{"flat-fabric", Options{Seed: 1, InstantBoot: true, FabricBps: netsim.Mbps(1000)}, 2*125 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(sim.NewEngine(), tc.opts)
			var vms []*VM
			for _, n := range []int{7, 1, 12, 105} {
				got, err := c.Provision(n, C1XLarge)
				if err != nil {
					t.Fatal(err)
				}
				vms = append(vms, got...)
			}
			// Every link of the cluster lies on some route between two of
			// its VMs, so the routes between all pairs reach all of them.
			links := make(map[*netsim.Link]bool)
			for i, vm := range vms {
				want := fmt.Sprintf("vm-%d", i)
				h := vm.Host()
				if vm.ID() != i || vm.Name() != want || h.Name() != want || h.Up().Name() != want+"/up" ||
					h.Down().Name() != want+"/down" {
					t.Fatalf("VM %d: id %d, names %q %q %q %q", i, vm.ID(), vm.Name(), h.Name(),
						h.Up().Name(), h.Down().Name())
				}
				for _, dst := range vms {
					if dst != vm {
						for _, l := range c.AppendTransferPath(nil, vm, dst) {
							links[l] = true
						}
					}
				}
			}
			if len(links) != tc.links {
				t.Fatalf("routes cross %d links, want %d", len(links), tc.links)
			}
			seen := make(map[string]bool, len(links))
			for l := range links {
				if seen[l.Name()] {
					t.Fatalf("two links are named %q", l.Name())
				}
				seen[l.Name()] = true
			}
		})
	}
}
