package fault

import (
	"fmt"
	"testing"

	"frieda/internal/sim"
)

// stateOf returns node's liveness state (Alive for an unwatched node).
func stateOf(d *Detector, node string) NodeState {
	switch {
	case d.declared[node]:
		return Declared
	case d.Suspected(node):
		return Suspect
	case d.SlowSuspected(node):
		return SlowSuspect
	}
	return Alive
}

func TestDetectorDeclaresOnSilence(t *testing.T) {
	eng := sim.NewEngine()
	var failed []string
	d := NewDetectorK(eng, 10, 1, func(n string) { failed = append(failed, n) })
	d.Watch("w0")
	d.Watch("w1")
	// w0 heartbeats at 5 and 12; w1 stays silent.
	eng.Schedule(5, func() { d.Heartbeat("w0") })
	eng.Schedule(12, func() { d.Heartbeat("w0") })
	eng.RunUntil(15)
	if len(failed) != 1 || failed[0] != "w1" {
		t.Fatalf("failed = %v, want [w1]", failed)
	}
	if !d.declared["w1"] || d.declared["w0"] {
		t.Fatal("Failed() state wrong")
	}
	// w0 eventually fails after its last heartbeat + timeout = 22.
	eng.RunUntil(30)
	if len(failed) != 2 || failed[1] != "w0" {
		t.Fatalf("failed = %v", failed)
	}
}

func TestDetectorStopPreventsDeclaration(t *testing.T) {
	eng := sim.NewEngine()
	declared := 0
	d := NewDetectorK(eng, 5, 1, func(string) { declared++ })
	d.Watch("w0")
	eng.Schedule(2, func() { d.Stop("w0") })
	eng.RunUntil(100)
	if declared != 0 {
		t.Fatal("graceful stop still declared failure")
	}
}

func TestDetectorIgnoresUnknownAndDeclared(t *testing.T) {
	eng := sim.NewEngine()
	declared := 0
	d := NewDetectorK(eng, 5, 1, func(string) { declared++ })
	d.Heartbeat("ghost") // unknown: no-op
	d.Watch("w0")
	eng.RunUntil(10)
	if declared != 1 {
		t.Fatalf("declared = %d", declared)
	}
	d.Heartbeat("w0") // already declared: no resurrection
	eng.RunUntil(100)
	if declared != 1 {
		t.Fatalf("declared after late heartbeat = %d", declared)
	}
	// Double-watch is a no-op.
	d.Watch("w0")
}

// Regression: a node re-watched after being declared failed must be
// monitored afresh, not stay declared forever — a replacement worker
// reusing the name would otherwise never be detected again.
func TestDetectorRewatchAfterDeclareClearsState(t *testing.T) {
	eng := sim.NewEngine()
	var failed []string
	d := NewDetectorK(eng, 5, 1, func(n string) { failed = append(failed, n) })
	d.Watch("w0")
	eng.RunUntil(10)
	if len(failed) != 1 || !d.declared["w0"] {
		t.Fatalf("setup: failed = %v", failed)
	}
	// A replacement worker boots with the same name.
	d.Watch("w0")
	if d.declared["w0"] {
		t.Fatal("re-watched node still declared")
	}
	// Its heartbeats must count again: beat every 3 s through t=28, then
	// go silent and get declared anew at 33.
	var beat func()
	beat = func() {
		if eng.Now() < 28 {
			d.Heartbeat("w0")
			eng.Schedule(3, beat)
		}
	}
	eng.Schedule(3, beat)
	eng.RunUntil(28)
	if len(failed) != 1 {
		t.Fatalf("heartbeating replacement was declared: %v", failed)
	}
	eng.RunUntil(60)
	if len(failed) != 2 || failed[1] != "w0" {
		t.Fatalf("silent replacement not re-declared: %v", failed)
	}
}

func TestDetectorSuspectConfirmLadder(t *testing.T) {
	eng := sim.NewEngine()
	var failed []string
	d := NewDetectorK(eng, 10, 3, func(n string) { failed = append(failed, n) })
	d.Watch("w0")
	// Silence through one deadline (t=10): suspect, not declared.
	eng.RunUntil(15)
	if trs := d.Transitions(); len(trs) != 1 || trs[0].State != Suspect || len(failed) != 0 {
		t.Fatalf("after one miss: transitions %v failed %v", trs, failed)
	}
	if !d.Suspected("w0") || stateOf(d, "w0") != Suspect {
		t.Fatal("state not Suspect after one miss")
	}
	// A heartbeat while suspect clears the suspicion.
	d.Heartbeat("w0")
	if trs := d.Transitions(); d.Suspected("w0") || len(trs) != 2 || trs[1].State != Alive {
		t.Fatalf("heartbeat did not clear suspicion (transitions %v)", trs)
	}
	if stateOf(d, "w0") != Alive {
		t.Fatal("state not Alive after recovery")
	}
	// Full silence after the t=10 heartbeat: misses at 20, 30, 40 ->
	// declared on the third.
	eng.RunUntil(100)
	if len(failed) != 1 || !d.declared["w0"] {
		t.Fatalf("failed = %v", failed)
	}
	if stateOf(d, "w0") != Declared {
		t.Fatal("state not Declared")
	}
	// Transition log: suspect, recover, suspect, declared.
	trs := d.Transitions()
	var got []string
	for _, tr := range trs {
		got = append(got, fmt.Sprintf("%s@%.0f", tr.State, float64(tr.At)))
	}
	want := []string{"suspect@10", "alive@10", "suspect@20", "declared@40"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	if trs[3].Missed != 3 {
		t.Fatalf("declaration Missed = %d, want 3", trs[3].Missed)
	}
}

func TestDetectorKOnePreservesBinaryBehaviour(t *testing.T) {
	eng := sim.NewEngine()
	var failed []string
	d := NewDetectorK(eng, 10, 1, func(n string) { failed = append(failed, n) })
	d.Watch("w0")
	eng.RunUntil(11)
	if len(failed) != 1 {
		t.Fatalf("K=1 did not declare on first miss: %v", failed)
	}
	// No intermediate suspect transition is recorded at K=1.
	for _, tr := range d.Transitions() {
		if tr.State == Suspect {
			t.Fatal("K=1 recorded a Suspect transition")
		}
	}
}

func TestDetectorPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for K=0")
		}
	}()
	NewDetectorK(sim.NewEngine(), 1, 0, nil)
}

func TestDetectorPanicsOnBadTimeout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero timeout")
		}
	}()
	NewDetectorK(sim.NewEngine(), 0, 1, nil)
}
