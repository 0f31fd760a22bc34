package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"frieda/internal/obs"
	"frieda/internal/sim"
)

// almost reports a ≈ b within a relative tolerance generous enough for the
// fluid model's float arithmetic.
func almost(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-6*scale+1e-9
}

// ends is the tests' FlowOwner: a completion and an interrupt callback,
// either nil. The simulator's transfers own their flows through records of
// their own; a test is free to close over what it checks.
type ends struct {
	done func(at sim.Time)
	intr func(delivered float64, at sim.Time)
}

func (e *ends) FlowDone(f *Flow) {
	if e.done != nil {
		e.done(f.net().eng.Now())
	}
}

func (e *ends) FlowInterrupted(f *Flow, delivered float64) {
	if e.intr != nil {
		e.intr(delivered, f.net().eng.Now())
	}
}

// onDone owns a flow through its completion callback alone.
func onDone(fn func(at sim.Time)) FlowOwner { return &ends{done: fn} }

func TestSingleFlowDuration(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	var done sim.Time
	// 12.5 MB over 100 Mbps = 1 s.
	net.Transfer(src, dst, nil, 12.5e6, func(at sim.Time) { done = at })
	eng.Run()
	if !almost(float64(done), 1.0) {
		t.Fatalf("transfer finished at %v, want 1.0s", done)
	}
	if net.FlowsCompleted != 1 {
		t.Fatalf("FlowsCompleted = %d", net.FlowsCompleted)
	}
	if !almost(net.BytesMoved, 12.5e6) {
		t.Fatalf("BytesMoved = %v", net.BytesMoved)
	}
}

func TestSharedUplinkFairSharing(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("master", Mbps(100), Mbps(100))
	var finishes []sim.Time
	for i := 0; i < 4; i++ {
		dst := net.NewHost(string(rune('a'+i)), Mbps(100), Mbps(100))
		// Each 12.5 MB; four flows share the 100 Mbps uplink -> 25 Mbps each
		// -> all finish together at 4 s.
		net.Transfer(src, dst, nil, 12.5e6, func(at sim.Time) { finishes = append(finishes, at) })
	}
	eng.Run()
	if len(finishes) != 4 {
		t.Fatalf("finished %d flows, want 4", len(finishes))
	}
	for _, at := range finishes {
		if !almost(float64(at), 4.0) {
			t.Fatalf("flow finished at %v, want 4.0s", at)
		}
	}
}

func TestRateReallocationOnCompletion(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	d1 := net.NewHost("d1", Mbps(100), Mbps(100))
	d2 := net.NewHost("d2", Mbps(100), Mbps(100))
	var t1, t2 sim.Time
	// Flow A: 6.25 MB, flow B: 12.5 MB. Sharing 100 Mbps -> 50 Mbps each.
	// A finishes at 1 s; B then gets the full link and finishes its
	// remaining 6.25 MB in 0.5 s -> 1.5 s total.
	net.Transfer(src, d1, nil, 6.25e6, func(at sim.Time) { t1 = at })
	net.Transfer(src, d2, nil, 12.5e6, func(at sim.Time) { t2 = at })
	eng.Run()
	if !almost(float64(t1), 1.0) {
		t.Fatalf("flow A finished at %v, want 1.0", t1)
	}
	if !almost(float64(t2), 1.5) {
		t.Fatalf("flow B finished at %v, want 1.5", t2)
	}
}

func TestDownlinkBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	// Two fast senders into one slow receiver: the receiver's downlink is
	// the bottleneck.
	s1 := net.NewHost("s1", Mbps(1000), Mbps(1000))
	s2 := net.NewHost("s2", Mbps(1000), Mbps(1000))
	dst := net.NewHost("dst", Mbps(1000), Mbps(100))
	var done []sim.Time
	net.Transfer(s1, dst, nil, 12.5e6, func(at sim.Time) { done = append(done, at) })
	net.Transfer(s2, dst, nil, 12.5e6, func(at sim.Time) { done = append(done, at) })
	eng.Run()
	for _, at := range done {
		if !almost(float64(at), 2.0) {
			t.Fatalf("finished at %v, want 2.0 (50 Mbps each)", at)
		}
	}
}

func TestFabricContention(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	fabric := net.NewFabric("core", Mbps(100))
	var done []sim.Time
	for i := 0; i < 2; i++ {
		s := net.NewHost("s"+string(rune('0'+i)), Mbps(1000), Mbps(1000))
		d := net.NewHost("d"+string(rune('0'+i)), Mbps(1000), Mbps(1000))
		net.Transfer(s, d, fabric, 12.5e6, func(at sim.Time) { done = append(done, at) })
	}
	eng.Run()
	// Distinct host pairs, but the shared 100 Mbps fabric halves each rate.
	for _, at := range done {
		if !almost(float64(at), 2.0) {
			t.Fatalf("finished at %v, want 2.0", at)
		}
	}
}

func TestMaxMinUnevenPaths(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	// Classic max-min example: flow X crosses both links, flows Y and Z one
	// each. L1=100, L2=100: Y unfrozen share on L1 = 50, Z on L2 = 50,
	// X gets min(50,50)=50? Progressive filling: L1 has {X,Y} residual 100
	// share 50; L2 has {X,Z} share 50. Freeze at 50 each; X=Y=Z=50 Mbps.
	srcX := net.NewHost("srcX", Mbps(1000), Mbps(1000))
	mid := net.NewFabric("L1", Mbps(100))
	// Build a custom path topology using raw links.
	l2 := net.NewLink("L2", Mbps(100))
	dstX := net.NewHost("dstX", Mbps(1000), Mbps(1000))
	var tX, tY, tZ sim.Time
	// X: srcX.up -> L1 -> L2 -> dstX.down
	net.StartFlow(12.5e6, []*Link{srcX.Up(), mid.Link(), l2, dstX.Down()}, onDone(func(at sim.Time) { tX = at }))
	// Y: only L1
	net.StartFlow(12.5e6, []*Link{mid.Link()}, onDone(func(at sim.Time) { tY = at }))
	// Z: only L2
	net.StartFlow(12.5e6, []*Link{l2}, onDone(func(at sim.Time) { tZ = at }))
	eng.Run()
	if !almost(float64(tX), 2.0) || !almost(float64(tY), 2.0) || !almost(float64(tZ), 2.0) {
		t.Fatalf("tX=%v tY=%v tZ=%v, want all 2.0", tX, tY, tZ)
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	s := net.NewHost("s", Mbps(10), Mbps(10))
	d := net.NewHost("d", Mbps(10), Mbps(10))
	fired := false
	net.Transfer(s, d, nil, 0, func(at sim.Time) {
		fired = true
		if at != 0 {
			t.Fatalf("zero-byte flow finished at %v", at)
		}
	})
	eng.Run()
	if !fired {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestCancelFlow(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	s := net.NewHost("s", Mbps(100), Mbps(100))
	d1 := net.NewHost("d1", Mbps(100), Mbps(100))
	d2 := net.NewHost("d2", Mbps(100), Mbps(100))
	var tSurvivor sim.Time
	doomed := net.Transfer(s, d1, nil, 125e6, func(sim.Time) { t.Fatal("cancelled flow completed") })
	net.Transfer(s, d2, nil, 12.5e6, func(at sim.Time) { tSurvivor = at })
	// Cancel the first flow at t=1s; the survivor then gets the full link.
	eng.Schedule(1, func() { net.Cancel(doomed) })
	eng.Run()
	// Survivor: 1 s at 50 Mbps moves 6.25 MB; remaining 6.25 MB at
	// 100 Mbps takes 0.5 s -> 1.5 s.
	if !almost(float64(tSurvivor), 1.5) {
		t.Fatalf("survivor finished at %v, want 1.5", tSurvivor)
	}
	if doomed.finished {
		t.Fatal("cancelled flow marked finished")
	}
}

func TestSetCapacityMidFlow(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	s := net.NewHost("s", Mbps(100), Mbps(100))
	d := net.NewHost("d", Mbps(100), Mbps(100))
	var done sim.Time
	net.Transfer(s, d, nil, 25e6, func(at sim.Time) { done = at })
	// After 1 s (12.5 MB sent), halve the uplink: remaining 12.5 MB at
	// 50 Mbps takes 2 s -> finish at 3 s.
	eng.Schedule(1, func() { net.SetCapacity(s.Up(), Mbps(50)) })
	eng.Run()
	if !almost(float64(done), 3.0) {
		t.Fatalf("finished at %v, want 3.0", done)
	}
}

func TestStaggeredStarts(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	s := net.NewHost("s", Mbps(100), Mbps(100))
	d1 := net.NewHost("d1", Mbps(100), Mbps(100))
	d2 := net.NewHost("d2", Mbps(100), Mbps(100))
	var t1, t2 sim.Time
	net.Transfer(s, d1, nil, 25e6, func(at sim.Time) { t1 = at })
	eng.Schedule(1, func() {
		net.Transfer(s, d2, nil, 12.5e6, func(at sim.Time) { t2 = at })
	})
	eng.Run()
	// Flow 1 alone for 1 s (12.5 MB done), then shares: each at 50 Mbps.
	// Flow 1 has 12.5 MB left -> 2 s more -> t1 = 3.0.
	// Flow 2: 12.5 MB at 50 Mbps... but flow1 finishes at 3.0 when flow2
	// has sent 2s*50Mbps = 12.5MB -> also done at 3.0.
	if !almost(float64(t1), 3.0) {
		t.Fatalf("t1 = %v, want 3.0", t1)
	}
	if !almost(float64(t2), 3.0) {
		t.Fatalf("t2 = %v, want 3.0", t2)
	}
}

func TestPathSelfPanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	h := net.NewHost("h", Mbps(10), Mbps(10))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for self-path")
		}
	}()
	AppendPath(nil, h, h, nil)
}

// Property: total goodput through a single shared uplink never exceeds its
// capacity, and all bytes eventually arrive, for random flow sets.
func TestConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		net := New(eng)
		src := net.NewHost("src", Mbps(100), Mbps(100))
		n := rng.Intn(12) + 1
		var total float64
		remainingDone := n
		lastFinish := sim.Time(0)
		for i := 0; i < n; i++ {
			bytes := float64(rng.Intn(20e6) + 1e5)
			total += bytes
			dst := net.NewHost(string(rune('A'+i)), Mbps(1000), Mbps(1000))
			start := sim.Duration(rng.Float64() * 5)
			eng.Schedule(start, func() {
				net.Transfer(src, dst, nil, bytes, func(at sim.Time) {
					remainingDone--
					if at > lastFinish {
						lastFinish = at
					}
				})
			})
		}
		eng.Run()
		if remainingDone != 0 {
			return false
		}
		// The uplink moves at most 12.5 MB/s; lastFinish must be at least
		// total/12.5e6 (lower bound ignoring stagger).
		minTime := total / 12.5e6
		return float64(lastFinish) >= minTime-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a flow's completion time is monotone in its size when running
// alone on a dedicated pair of hosts.
func TestMonotoneSizeProperty(t *testing.T) {
	prop := func(a, b uint32) bool {
		s1, s2 := float64(a%1e7)+1, float64(b%1e7)+1
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		run := func(bytes float64) sim.Time {
			eng := sim.NewEngine()
			net := New(eng)
			s := net.NewHost("s", Mbps(100), Mbps(100))
			d := net.NewHost("d", Mbps(100), Mbps(100))
			var done sim.Time
			net.Transfer(s, d, nil, bytes, func(at sim.Time) { done = at })
			eng.Run()
			return done
		}
		return run(s1) <= run(s2)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFanOut16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := New(eng)
		src := net.NewHost("src", Mbps(100), Mbps(100))
		for w := 0; w < 16; w++ {
			dst := net.NewHost("w"+string(rune('a'+w)), Mbps(100), Mbps(100))
			for k := 0; k < 8; k++ {
				net.Transfer(src, dst, nil, 7e6, nil)
			}
		}
		eng.Run()
	}
}

func TestLatencyDelaysFlowStart(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	s := net.NewHost("s", Mbps(100), Mbps(100))
	d := net.NewHost("d", Mbps(100), Mbps(100))
	s.Up().SetLatency(0.05)
	d.Down().SetLatency(0.05)
	var done sim.Time
	// 12.5 MB at 100 Mbps = 1 s transfer + 0.1 s path latency.
	net.Transfer(s, d, nil, 12.5e6, func(at sim.Time) { done = at })
	eng.Run()
	if !almost(float64(done), 1.1) {
		t.Fatalf("finished at %v, want 1.1", done)
	}
}

func TestLatencyZeroByteFlow(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	s := net.NewHost("s", Mbps(100), Mbps(100))
	d := net.NewHost("d", Mbps(100), Mbps(100))
	s.Up().SetLatency(0.2)
	var done sim.Time
	net.Transfer(s, d, nil, 0, func(at sim.Time) { done = at })
	eng.Run()
	if !almost(float64(done), 0.2) {
		t.Fatalf("zero-byte flow finished at %v, want 0.2", done)
	}
}

func TestCancelDuringLatency(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	s := net.NewHost("s", Mbps(100), Mbps(100))
	d := net.NewHost("d", Mbps(100), Mbps(100))
	s.Up().SetLatency(1.0)
	f := net.Transfer(s, d, nil, 12.5e6, func(sim.Time) { t.Fatal("cancelled flow completed") })
	eng.Schedule(0.5, func() { net.Cancel(f) })
	eng.Run()
	if len(net.flows) != 0 {
		t.Fatalf("flows leaked: %d", len(net.flows))
	}
}

func TestSetNegativeLatencyPanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	l := net.NewLink("x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative latency")
		}
	}()
	l.SetLatency(-1)
}

// TestFlowBottleneck checks Bottleneck picks the tightest path link, both
// mid-flight and from a completion callback (where the flow has detached).
func TestFlowBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(10), Mbps(10))
	checked := false
	var fl *Flow
	fl = net.Transfer(src, dst, nil, 1e6, func(sim.Time) {
		if bn := fl.Bottleneck(); bn != dst.Down() {
			t.Errorf("bottleneck at completion = %v, want dst down", bn.Name())
		}
		checked = true
	})
	if bn := fl.Bottleneck(); bn != dst.Down() {
		t.Fatalf("bottleneck mid-flight = %v, want dst down", bn.Name())
	}
	eng.Run()
	if !checked {
		t.Fatal("completion callback never ran")
	}
}

// TestFlowBottleneckFailedLink checks a failed link dominates any congested
// healthy link when an interrupt callback asks what killed the flow.
func TestFlowBottleneckFailedLink(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(10), Mbps(10))
	interrupted := false
	var fl *Flow
	fl = net.StartFlow(1e9, AppendPath(nil, src, dst, nil), &ends{intr: func(float64, sim.Time) {
		if bn := fl.Bottleneck(); bn != src.Up() {
			t.Errorf("bottleneck after failure = %v, want failed src up", bn.Name())
		}
		interrupted = true
	}})
	eng.Schedule(sim.Duration(1), func() { net.FailLink(src.Up()) })
	eng.Run()
	if !interrupted {
		t.Fatal("interrupt callback never ran")
	}
}

// Four equal flows share the source's uplink and finish at one instant T.
// An event queued at T after their completion events must see them all
// gone — no active flow, nothing on the uplink — because the finishes
// re-rate the network once, at the instant's rebalance, not one finish at a
// time (which would re-rate the survivors and push their completions behind
// the event). For the same reason the tracer records each link's utilised
// rate at most once per instant: the rate the instant settles at, not the
// steps on the way.
func TestSimultaneousFinishesSettleOnce(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	tr := obs.NewTracer(eng, "net")
	net.SetTracer(tr)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	var done []sim.Time
	probed := false
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			dst := net.NewHost(hostName("d", i), Mbps(100), Mbps(100))
			net.StartFlow(12.5e6, AppendPath(nil, src, dst, nil), onDone(func(at sim.Time) { done = append(done, at) }))
		}
		// Queued behind the instant's rebalance, which schedules the four
		// completions at T = 4 s; the probe is then queued behind them.
		eng.Schedule(0, func() {
			eng.Schedule(4, func() {
				probed = true
				if n := len(net.flows); n != 0 {
					t.Errorf("t=%v: %d flows still active after their finish", eng.Now(), n)
				}
				if bps := src.Up().UtilisedBps(); bps != 0 {
					t.Errorf("t=%v: uplink still carries %v bps", eng.Now(), bps)
				}
			})
		})
	})
	eng.Run()
	if !probed || len(done) != 4 {
		t.Fatalf("probe ran %v, %d flows done", probed, len(done))
	}
	for _, at := range done {
		if at != 4 {
			t.Fatalf("flows done at %v, want all at 4", done)
		}
	}
	type key struct {
		track string
		at    sim.Time
	}
	seen := map[key]float64{}
	for _, e := range tr.Events() {
		if e.Phase != obs.PhaseCounter || e.Name != "utilised_bps" {
			continue
		}
		k := key{e.Track, e.Ts}
		if v, dup := seen[k]; dup {
			t.Errorf("link %s: utilised_bps %v then %v at t=%v", e.Track, v, e.Value, e.Ts)
		}
		seen[k] = e.Value
	}
	if len(seen) == 0 {
		t.Fatal("the tracer recorded no utilised_bps counter")
	}
}
