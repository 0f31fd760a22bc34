package netsim

import (
	"testing"

	"frieda/internal/sim"
)

func TestFailLinkInterruptsFlowWithDeliveredBytes(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	completed := false
	// 12.5 MB over 100 Mbps = 1 s unfaulted.
	var delivered float64
	var at sim.Time
	f := net.StartFlow(12.5e6, AppendPath(nil, src, dst, nil), &ends{
		done: func(sim.Time) { completed = true },
		intr: func(d float64, ts sim.Time) { delivered, at = d, ts },
	})
	eng.Schedule(0.4, func() { net.FailLink(dst.Down()) })
	eng.Run()
	if completed {
		t.Fatal("interrupted flow ran its completion callback")
	}
	if !f.interrupted {
		t.Fatal("flow not marked interrupted")
	}
	// 0.4 s at 100 Mbps = 5 MB delivered.
	if !almost(delivered, 5e6) {
		t.Fatalf("delivered = %v, want 5e6", delivered)
	}
	if !almost(float64(at), 0.4) {
		t.Fatalf("interrupt at %v, want 0.4s", at)
	}
	if net.FlowsInterrupted != 1 {
		t.Fatalf("FlowsInterrupted = %d, want 1", net.FlowsInterrupted)
	}
	if !dst.Down().Failed() {
		t.Fatal("link not marked failed")
	}
}

func TestFailLinkReratesSurvivors(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	a := net.NewHost("a", Mbps(100), Mbps(100))
	b := net.NewHost("b", Mbps(100), Mbps(100))
	var aDone, bDone sim.Time
	// Two 12.5 MB flows share src's uplink at 50 Mbps each.
	net.Transfer(src, a, nil, 12.5e6, func(at sim.Time) { aDone = at })
	net.Transfer(src, b, nil, 12.5e6, func(at sim.Time) { bDone = at })
	// At 1 s, a's downlink dies: a's flow is killed, b's flow re-rates to
	// the full 100 Mbps. b delivered 6.25 MB so far, so the remaining
	// 6.25 MB takes 0.5 s more.
	eng.Schedule(1.0, func() { net.FailLink(a.Down()) })
	eng.Run()
	if aDone != 0 {
		t.Fatalf("a's flow completed at %v despite link failure", aDone)
	}
	if !almost(float64(bDone), 1.5) {
		t.Fatalf("b finished at %v, want 1.5s", bDone)
	}
}

func TestFailedLinkRejectsNewFlows(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	net.FailLink(dst.Down())
	completed := false
	var delivered = -1.0
	f := net.StartFlow(1e6, AppendPath(nil, src, dst, nil), &ends{
		done: func(sim.Time) { completed = true },
		intr: func(d float64, _ sim.Time) { delivered = d },
	})
	eng.Run()
	if completed {
		t.Fatal("flow across failed link completed")
	}
	if delivered != 0 {
		t.Fatalf("join-time rejection delivered %v, want 0", delivered)
	}
	if !f.interrupted {
		t.Fatal("flow not marked interrupted")
	}
}

func TestRestoreLinkCarriesNewFlows(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	net.FailLink(dst.Down())
	net.RestoreLink(dst.Down())
	if dst.Down().Failed() {
		t.Fatal("link still failed after restore")
	}
	var done sim.Time
	net.Transfer(src, dst, nil, 12.5e6, func(at sim.Time) { done = at })
	eng.Run()
	if !almost(float64(done), 1.0) {
		t.Fatalf("post-restore transfer finished at %v, want 1.0s", done)
	}
}

func TestDegradeAndRestoreRerateInFlight(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	var done sim.Time
	// 12.5 MB. First 0.5 s at 100 Mbps moves 6.25 MB. Degraded to 25 Mbps
	// for 1 s moves 3.125 MB. Restored, the last 3.125 MB takes 0.25 s.
	net.Transfer(src, dst, nil, 12.5e6, func(at sim.Time) { done = at })
	eng.Schedule(0.5, func() { net.DegradeLink(dst.Down(), 0.25) })
	eng.Schedule(1.5, func() { net.RestoreLink(dst.Down()) })
	eng.Run()
	if !almost(float64(done), 1.75) {
		t.Fatalf("transfer finished at %v, want 1.75s", done)
	}
}

// Cancel of an interrupted flow from inside its interrupt callback is a
// no-op: the owner hears of the interrupt once, and the network is left
// clean.
func TestCancelInterruptedFlowIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	interrupts := 0
	var f *Flow
	f = net.StartFlow(12.5e6, AppendPath(nil, src, dst, nil), &ends{intr: func(float64, sim.Time) {
		interrupts++
		net.Cancel(f) // must not double-remove or re-solve with the dead flow
	}})
	eng.Schedule(0.1, func() { net.FailLink(dst.Down()) })
	eng.Run()
	if interrupts != 1 {
		t.Fatalf("interrupt callback ran %d times, want 1", interrupts)
	}
	if len(net.flows) != 0 {
		t.Fatalf("%d flows left on the network", len(net.flows))
	}
}

// injectorSchedule runs an injector on an otherwise idle network for `horizon`
// seconds and returns (faults, restores). Every event is one of the
// injector's edges, so the link's state after each says which.
func injectorSchedule(t *testing.T, opts FaultOptions, horizon float64) (faults, restores int) {
	t.Helper()
	eng := sim.NewEngine()
	net := New(eng)
	h := net.NewHost("w", Mbps(100), Mbps(100))
	inj := NewLinkFaultInjector(net, [][]*Link{{h.Up(), h.Down()}}, opts)
	for eng.Step() && eng.Now() <= sim.Time(horizon) {
		if h.Up().Failed() {
			faults++
		} else {
			restores++
		}
	}
	inj.Stop()
	return faults, restores
}

func TestInjectorDeterministicAcrossRuns(t *testing.T) {
	opts := FaultOptions{Seed: 42, MTBFSec: 50, MTTRSec: 10}
	f1, r1 := injectorSchedule(t, opts, 1000)
	f2, r2 := injectorSchedule(t, opts, 1000)
	if f1 != f2 || r1 != r2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", f1, r1, f2, r2)
	}
	if f1 == 0 {
		t.Fatal("no faults injected over 20 MTBFs")
	}
	f3, _ := injectorSchedule(t, FaultOptions{Seed: 43, MTBFSec: 50, MTTRSec: 10}, 1000)
	if f3 == f1 {
		t.Logf("different seeds coincided on %d faults (possible but unusual)", f1)
	}
}

func TestInjectorFlapBurst(t *testing.T) {
	// Flap mode must produce more (shorter) outages than a single-cycle
	// injector at the same MTBF/MTTR.
	plain, _ := injectorSchedule(t, FaultOptions{Seed: 7, MTBFSec: 100, MTTRSec: 20}, 2000)
	flappy, _ := injectorSchedule(t, FaultOptions{Seed: 7, MTBFSec: 100, MTTRSec: 20, FlapCount: 4}, 2000)
	if flappy <= plain {
		t.Fatalf("flap mode injected %d outages, plain %d; want more", flappy, plain)
	}
}

func TestInjectorDegradeMode(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	h := net.NewHost("w", Mbps(100), Mbps(100))
	inj := NewLinkFaultInjector(net, [][]*Link{{h.Up(), h.Down()}},
		FaultOptions{Seed: 1, MTBFSec: 30, MTTRSec: 1000, DegradeFactor: 0.1})
	// The first event is the first outage.
	eng.Step()
	if h.Down().Failed() {
		t.Fatal("degrade mode marked the link failed")
	}
	if !almost(h.Down().Capacity(), Mbps(10)) {
		t.Fatalf("degraded capacity = %v, want 10 Mbps", h.Down().Capacity())
	}
	inj.Stop()
}

func TestInjectorStopDrainsEngine(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	h := net.NewHost("w", Mbps(100), Mbps(100))
	inj := NewLinkFaultInjector(net, [][]*Link{{h.Up(), h.Down()}},
		FaultOptions{Seed: 1, MTBFSec: 10, MTTRSec: 5})
	eng.RunUntil(100)
	inj.Stop()
	eng.Run() // must terminate: no injector events left
}

func TestFaultOptionsValidate(t *testing.T) {
	bad := []FaultOptions{
		{MTBFSec: 0, MTTRSec: 1},
		{MTBFSec: 1, MTTRSec: 0},
		{MTBFSec: 1, MTTRSec: 1, FlapCount: -1},
		{MTBFSec: 1, MTTRSec: 1, DegradeFactor: 1.5},
		{MTBFSec: 1, MTTRSec: 1, DegradeFactor: -0.2},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
	if err := (FaultOptions{MTBFSec: 1, MTTRSec: 1, FlapCount: 3, DegradeFactor: 0.5}).Validate(); err != nil {
		t.Errorf("Validate rejected good options: %v", err)
	}
}
