package netsim

import (
	"math/rand"
	"testing"

	"frieda/internal/sim"
)

func TestTreeSpecValidate(t *testing.T) {
	bad := []TreeSpec{
		{HostsPerRack: 0},
		{HostsPerRack: -3},
		{HostsPerRack: 4, Spines: -1},
		{HostsPerRack: 4, Oversubscription: -2},
		{HostsPerRack: 4, SpineBps: -1},
		{HostsPerRack: 4, LatencySec: -0.5},
	}
	for _, spec := range bad {
		if _, err := NewTree(New(sim.NewEngine()), spec); err == nil {
			t.Errorf("spec %+v: want error", spec)
		}
	}
	tr, err := NewTree(New(sim.NewEngine()), TreeSpec{HostsPerRack: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.spec.Spines != 1 || tr.spec.Oversubscription != 1 {
		t.Fatalf("defaults not applied: %+v", tr.spec)
	}
}

func TestTreeRoutingAndRacks(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	tr, err := NewTree(net, TreeSpec{HostsPerRack: 2, Spines: 3, Oversubscription: 4})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*Host, 6)
	for i := range hosts {
		hosts[i] = net.NewHost(hostName("h", i), Mbps(100), Mbps(100))
		if r := tr.Attach(hosts[i]); r != i/2 {
			t.Fatalf("host %d in rack %d, want %d", i, r, i/2)
		}
	}
	if len(tr.racks) != 3 {
		t.Fatalf("%d racks, want 3", len(tr.racks))
	}
	if r := tr.RackOf(hosts[5]); r != 2 {
		t.Fatalf("RackOf = %d, want 2", r)
	}
	if r := tr.RackOf(net.NewHost("outsider", Mbps(100), Mbps(100))); r != -1 {
		t.Fatalf("RackOf(unattached) = %d, want -1", r)
	}

	// 2 hosts × 100 Mbps / 4 oversubscription = 50 Mbps ToR links.
	if got := tr.racks[0].up.Capacity(); got != Mbps(50) {
		t.Fatalf("ToR capacity = %v, want %v", got, Mbps(50))
	}

	intra := tr.Path(hosts[0], hosts[1])
	if len(intra) != 2 || intra[0] != hosts[0].Up() || intra[1] != hosts[1].Down() {
		t.Fatalf("intra-rack path %v, want [src.up dst.down]", intra)
	}
	inter := tr.Path(hosts[0], hosts[4])
	if len(inter) != 5 {
		t.Fatalf("inter-rack path has %d links, want 5", len(inter))
	}
	if inter[0] != hosts[0].Up() || inter[1] != tr.racks[0].up ||
		inter[3] != tr.racks[2].down || inter[4] != hosts[4].Down() {
		t.Fatalf("inter-rack path misrouted: %v", inter)
	}
	// Deterministic spine selection: the same rack pair always picks the
	// same spine.
	if inter[2] != tr.Path(hosts[1], hosts[5])[2] {
		t.Fatal("same rack pair chose different spines")
	}

	mustPanic(t, "double attach", func() { tr.Attach(hosts[0]) })
	mustPanic(t, "self path", func() { tr.Path(hosts[0], hosts[0]) })
	mustPanic(t, "unattached src", func() {
		tr.Path(net.NewHost("stray", Mbps(100), Mbps(100)), hosts[0])
	})
	mustPanic(t, "unattached dst", func() {
		tr.Path(hosts[0], net.NewHost("stray2", Mbps(100), Mbps(100)))
	})

	// A host's rack is recorded on the host; a host of another tree is still
	// a stranger to this one.
	otherNet := New(eng)
	other, err := NewTree(otherNet, TreeSpec{HostsPerRack: 2})
	if err != nil {
		t.Fatal(err)
	}
	foreign := otherNet.NewHost("foreign", Mbps(100), Mbps(100))
	other.Attach(foreign)
	if r := tr.RackOf(foreign); r != -1 {
		t.Fatalf("RackOf(host of another tree) = %d, want -1", r)
	}
	mustPanic(t, "foreign dst", func() { tr.Path(hosts[0], foreign) })
}

// Building hosts and racks in batches (NewHosts, AttachHosts) must give what
// building them one at a time (NewHost, Attach) gives: the same names,
// capacities, racks and ToR links, with batches that start and end mid-rack,
// a one-host batch, and a NIC rate that changes mid-rack (a rack's ToR rate
// follows its first host).
func TestBatchBuildMatchesOneByOne(t *testing.T) {
	spec := TreeSpec{HostsPerRack: 4, Spines: 2, Oversubscription: 2, LatencySec: 0.001}
	batches := []int{1, 6, 13, 3}
	upMbps := []float64{100, 100, 1000, 100}

	oneNet := New(sim.NewEngine())
	one, err := NewTree(oneNet, spec)
	if err != nil {
		t.Fatal(err)
	}
	batchNet := New(sim.NewEngine())
	batch, err := NewTree(batchNet, spec)
	if err != nil {
		t.Fatal(err)
	}
	var singles, batched []*Host
	i := 0
	for bi, n := range batches {
		names := make([]string, n)
		for k := range names {
			names[k] = hostName("vm-", i+k)
		}
		hosts := batchNet.NewHosts(names, Mbps(upMbps[bi]), Mbps(100))
		batch.AttachHosts(hosts)
		for k := range hosts {
			h := oneNet.NewHost(names[k], Mbps(upMbps[bi]), Mbps(100))
			one.Attach(h)
			singles, batched = append(singles, h), append(batched, &hosts[k])
		}
		i += n
	}
	sameLink := func(what string, a, b *Link) {
		t.Helper()
		if a.Name() != b.Name() || a.capacity != b.capacity || a.base != b.base || a.latency != b.latency {
			t.Fatalf("%s: one-by-one %q %v/%v latency %v, batched %q %v/%v latency %v", what,
				a.name, a.capacity, a.base, a.latency, b.name, b.capacity, b.base, b.latency)
		}
	}
	for k := range singles {
		a, b := singles[k], batched[k]
		if a.Name() != b.Name() || one.RackOf(a) != batch.RackOf(b) {
			t.Fatalf("host %d: one-by-one %q in rack %d, batched %q in rack %d", k, a.Name(), one.RackOf(a), b.Name(), batch.RackOf(b))
		}
		sameLink("up", a.Up(), b.Up())
		sameLink("down", a.Down(), b.Down())
	}
	if len(one.racks) != len(batch.racks) || len(one.racks) != 6 {
		t.Fatalf("racks: one-by-one %d, batched %d, want 6", len(one.racks), len(batch.racks))
	}
	for r := range one.racks {
		sameLink("tor up", one.racks[r].up, batch.racks[r].up)
		sameLink("tor down", one.racks[r].down, batch.racks[r].down)
	}
	mustPanic(t, "double batch attach", func() { batch.AttachHosts([]Host{*batched[0]}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// treeChurn is the shared random scenario for the equivalence tests: nHosts
// hosts exchanging staggered random transfers, with rate snapshots taken at
// checkpoint times and completion times recorded per flow index. paths maps
// a flow index to its path in the net under test, so the same logical
// scenario runs on a flat fabric-less network, on a fat-tree, and on any
// allocator-mode variant.
type treeChurnResult struct {
	completions []sim.Time
	snapshots   [][]float64
}

func runTreeChurn(t testing.TB, net *Network, eng *sim.Engine, links []*Link, path func(i, src, dst int) []*Link, seed int64, nHosts, nFlows int) treeChurnResult {
	rng := rand.New(rand.NewSource(seed))
	res := treeChurnResult{completions: make([]sim.Time, nFlows)}
	flows := make([]*Flow, nFlows)
	for i := 0; i < nFlows; i++ {
		src := rng.Intn(nHosts)
		dst := rng.Intn(nHosts - 1)
		if dst >= src {
			dst++
		}
		bytes := float64(rng.Intn(40e6) + 1e6)
		start := sim.Duration(rng.Float64() * 10)
		i := i
		p := path(i, src, dst)
		eng.Schedule(start, func() {
			flows[i] = net.StartFlow(bytes, p, onDone(func(at sim.Time) {
				res.completions[i] = at
				flows[i] = nil // the network takes a finished flow back
			}))
		})
	}
	// Checkpoints between waves of activity; each snapshots every flow's
	// current rate (0 for not-yet-started or finished flows).
	for _, at := range []float64{5, 15, 40, 90} {
		eng.Schedule(sim.Duration(at), func() {
			snap := make([]float64, nFlows)
			for i, f := range flows {
				if f != nil {
					snap[i] = f.Rate()
				}
			}
			res.snapshots = append(res.snapshots, snap)
		})
	}
	for eng.Step() {
		checkMembership(t, net, links)
	}
	return res
}

// ulpClose reports whether two values agree to within a few ulps (relative
// 1e-12). The degenerate-tree property is exact in real arithmetic, but the
// ToR links' residual capacities are accumulated in a different float
// summation order than the flat net's NIC residuals, so completion times can
// drift by a couple of ulps.
func ulpClose(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	} else if -b > m {
		m = -b
	}
	return d <= 1e-12*m
}

// The degenerate fat-tree — 1:1 oversubscription, unconstrained spine — must
// reproduce the flat model's rates: the ToR constraint is implied by the sum
// of its hosts' NIC constraints, and an implied constraint never changes the
// (unique) max-min allocation. This is the contract that lets flat configs
// and tree configs share one allocator.
func TestTreeDegenerateMatchesFlat(t *testing.T) {
	const nHosts, nFlows = 16, 120
	flatEng := sim.NewEngine()
	flatNet := New(flatEng)
	flatHosts := make([]*Host, nHosts)
	for i := range flatHosts {
		flatHosts[i] = flatNet.NewHost(hostName("h", i), Mbps(100), Mbps(100))
	}
	flat := runTreeChurn(t, flatNet, flatEng, netLinks(nil, flatHosts), func(_, s, d int) []*Link {
		return AppendPath(nil, flatHosts[s], flatHosts[d], nil)
	}, 7, nHosts, nFlows)

	treeEng := sim.NewEngine()
	treeNet := New(treeEng)
	tr, err := NewTree(treeNet, TreeSpec{HostsPerRack: 4, Spines: 3, Oversubscription: 1})
	if err != nil {
		t.Fatal(err)
	}
	treeHosts := make([]*Host, nHosts)
	for i := range treeHosts {
		treeHosts[i] = treeNet.NewHost(hostName("h", i), Mbps(100), Mbps(100))
		tr.Attach(treeHosts[i])
	}
	tree := runTreeChurn(t, treeNet, treeEng, netLinks(tr, treeHosts), func(_, s, d int) []*Link {
		return tr.Path(treeHosts[s], treeHosts[d])
	}, 7, nHosts, nFlows)

	for i := range flat.completions {
		if !ulpClose(float64(flat.completions[i]), float64(tree.completions[i])) {
			t.Fatalf("flow %d: flat completes at %v, tree at %v",
				i, flat.completions[i], tree.completions[i])
		}
	}
	for s := range flat.snapshots {
		for i := range flat.snapshots[s] {
			if !ulpClose(flat.snapshots[s][i], tree.snapshots[s][i]) {
				t.Fatalf("snapshot %d flow %d: flat rate %v, tree rate %v",
					s, i, flat.snapshots[s][i], tree.snapshots[s][i])
			}
		}
	}
	if !ulpClose(flatNet.BytesMoved, treeNet.BytesMoved) || flatNet.FlowsCompleted != treeNet.FlowsCompleted {
		t.Fatalf("totals diverged: flat %v/%d, tree %v/%d",
			flatNet.BytesMoved, flatNet.FlowsCompleted, treeNet.BytesMoved, treeNet.FlowsCompleted)
	}
}

// An oversubscribed tree must agree with the reference whole-network solver
// at every checkpoint — the oracle contract extended to hierarchical paths,
// including the ToR-constrained regime the degenerate test can't reach.
func TestTreeOversubscribedMatchesOracle(t *testing.T) {
	const nHosts, nFlows = 16, 100
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
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < nFlows; i++ {
		src := rng.Intn(nHosts)
		dst := rng.Intn(nHosts - 1)
		if dst >= src {
			dst++
		}
		bytes := float64(rng.Intn(30e6) + 1e6)
		start := sim.Duration(rng.Float64() * 20)
		eng.Schedule(start, func() {
			net.StartFlow(bytes, tr.Path(hosts[src], hosts[dst]), nil)
		})
	}
	for _, at := range []float64{2, 10, 25, 60} {
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
