package fault

import (
	"testing"

	"frieda/internal/sim"
)

func TestMasterFaultEpisodes(t *testing.T) {
	eng := sim.NewEngine()
	var events []string
	inj := MasterFaultOptions{
		Seed: 1, MTBFSec: 100, MTTRSec: 10,
	}.Schedule(eng, func() { events = append(events, "crash") }, func() { events = append(events, "restart") })
	eng.RunUntil(sim.Time(2000))
	inj.Stop()
	eng.Run()
	if len(events) == 0 {
		t.Fatal("no crashes in 2000s at MTBF 100s")
	}
	// Episodes strictly alternate, so restarts trail crashes by at most one.
	for i, e := range events {
		want := "crash"
		if i%2 == 1 {
			want = "restart"
		}
		if e != want {
			t.Fatalf("event %d = %s, want %s (seq %v)", i, e, want, events)
		}
	}
}

func TestMasterFaultDeterminism(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.NewEngine()
		var at []sim.Time
		inj := MasterFaultOptions{
			Seed: 42, MTBFSec: 50, MTTRSec: 5,
		}.Schedule(eng, func() { at = append(at, eng.Now()) }, func() { at = append(at, eng.Now()) })
		eng.RunUntil(sim.Time(1000))
		inj.Stop()
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instant %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDetectorPauseResume checks the outage contract: no declaration can
// happen while paused, heartbeats during the pause are ignored, and resume
// re-arms full fresh deadlines (so silence *after* resume still declares).
func TestDetectorPauseResume(t *testing.T) {
	eng := sim.NewEngine()
	var failed []string
	d := NewDetectorK(eng, sim.Duration(10), 2, func(n string) { failed = append(failed, n) })
	d.Watch("w1")
	d.Watch("w2")

	// Heartbeat until t=48, then pause at t=50. Nothing may be declared
	// while paused, even though no heartbeats arrive for 150s of virtual
	// time.
	beat := func() {
		d.Heartbeat("w1")
		d.Heartbeat("w2")
	}
	for ts := 4; ts <= 48; ts += 4 {
		eng.At(sim.Time(ts), beat)
	}
	eng.At(sim.Time(50), d.Pause)
	eng.At(sim.Time(200), func() {
		if len(failed) != 0 {
			t.Errorf("declared %v during pause", failed)
		}
		// Heartbeats during pause are ignored (no timer re-arm).
		d.Heartbeat("w1")
		d.Resume()
	})
	eng.Run()
	if len(failed) != 2 {
		t.Fatalf("after resume with silence, declared %v (want both)", failed)
	}
}

// TestDetectorResumeDeterministic: resuming N watched nodes re-arms their
// deadline timers in sorted order, so two identical runs produce identical
// declaration order.
func TestDetectorResumeDeterministic(t *testing.T) {
	run := func() []string {
		eng := sim.NewEngine()
		var failed []string
		d := NewDetectorK(eng, sim.Duration(5), 1, func(n string) { failed = append(failed, n) })
		for _, n := range []string{"w3", "w1", "w7", "w2", "w5", "w4", "w6"} {
			d.Watch(n)
		}
		eng.At(sim.Time(1), d.Pause)
		eng.At(sim.Time(2), d.Resume)
		eng.Run()
		return failed
	}
	a, b := run(), run()
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("declarations: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a, b)
		}
	}
}
