package attrib

import (
	"math"
	"testing"

	"frieda/internal/sim"
)

// at advances the engine to time t via a scheduled marker event.
func at(t *testing.T, eng *sim.Engine, when float64, fn func()) {
	t.Helper()
	eng.At(sim.Time(when), fn)
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	n := r.At("x")
	if n != None {
		t.Fatalf("nil At returned %v, want None", n)
	}
	r.Edge(n, n, Compute, "")
	r.edgeSplit(0, 1, Compute, 1, "")
	r.ObserveTaskSec(1)
	r.ObserveTransferSec(1)
	if rep := r.Solve(0, 1); rep != nil {
		t.Fatalf("nil Solve returned %v", rep)
	}
	if r.Report() != nil {
		t.Fatal("nil Report non-nil")
	}
}

// TestLinearChainTelescopes drives a simple dispatch→transfer→compute chain
// and checks the blame bins reproduce each hop exactly.
func TestLinearChainTelescopes(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	start := r.At("run-start")
	var xfer, done, end NodeID
	at(t, eng, 5, func() {
		disp := r.After(start, QueueWait, "dispatch", "")
		_ = disp
		xfer = disp
	})
	at(t, eng, 25, func() { xfer = r.After(xfer, NetworkTransfer, "xfer-done", "link-a") })
	at(t, eng, 26.5, func() { xfer = r.After(xfer, DiskIO, "disk-done", "") })
	at(t, eng, 80, func() { done = r.After(xfer, Compute, "task-done", "w1") })
	at(t, eng, 80, func() { end = r.After(done, Unattributed, "run-end", "") })
	eng.Run()

	rep := r.Solve(start, end)
	if rep.MakespanSec != 80 {
		t.Fatalf("makespan %v, want 80", rep.MakespanSec)
	}
	want := map[Category]float64{
		QueueWait: 5, NetworkTransfer: 20, DiskIO: 1.5, Compute: 53.5,
	}
	for cat, sec := range want {
		if got := rep.Blame[cat]; math.Abs(got-sec) > 1e-9 {
			t.Errorf("blame[%s] = %v, want %v", cat, got, sec)
		}
	}
	if diff := math.Abs(rep.BlameTotalSec() - rep.MakespanSec); diff > 1e-6 {
		t.Fatalf("blame total off makespan by %v", diff)
	}
	if len(rep.Segments) != 5 {
		t.Fatalf("got %d segments, want 5", len(rep.Segments))
	}
	if rep.Segments[0].From != "run-start" || rep.Segments[len(rep.Segments)-1].To != "run-end" {
		t.Fatalf("segments not in time order: %+v", rep.Segments)
	}
	if r.Report() != rep {
		t.Fatal("Report() does not return the solved report")
	}
}

// TestBindingParentIsLatestCause checks the solver picks the last-arriving
// dependency: a node waiting on a fast and a slow input binds to the slow
// one, and the fast branch contributes nothing.
func TestBindingParentIsLatestCause(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	start := r.At("run-start")
	var fast, slow, join NodeID
	at(t, eng, 2, func() { fast = r.After(start, NetworkTransfer, "fast-input", "") })
	at(t, eng, 30, func() { slow = r.After(start, Repair, "slow-repair", "") })
	at(t, eng, 40, func() {
		join = r.After(fast, NetworkTransfer, "join", "")
		r.Edge(slow, join, Repair, "replica")
	})
	eng.Run()
	rep := r.Solve(start, join)
	if rep.Blame[Repair] != 40 { // 0→30 repair + 30→40 bound by repair edge
		t.Fatalf("repair blame %v, want 40 (binding parent should be the slow cause)", rep.Blame[Repair])
	}
	if rep.Blame[NetworkTransfer] != 0 {
		t.Fatalf("fast branch leaked %v into network blame", rep.Blame[NetworkTransfer])
	}
}

// TestInflationSplit checks AfterSplit (and edgeSplit below it) charges the slowdown slice to
// StragglerInflation and the remainder to the base category.
func TestInflationSplit(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	start := r.At("run-start")
	var done NodeID
	at(t, eng, 100, func() { done = r.AfterSplit(start, Compute, 60, "task-done", "w1") })
	eng.Run()
	rep := r.Solve(start, done)
	if rep.Blame[Compute] != 40 || rep.Blame[StragglerInflation] != 60 {
		t.Fatalf("split = compute %v / inflation %v, want 40/60",
			rep.Blame[Compute], rep.Blame[StragglerInflation])
	}
	// Inflation beyond the span clamps: never negative compute.
	r2 := NewRecorder(eng)
	s2 := r2.NodeAt(0, "start")
	d2 := r2.NodeAt(10, "done")
	r2.edgeSplit(s2, d2, Compute, 99, "")
	rep2 := r2.Solve(s2, d2)
	if rep2.Blame[Compute] != 0 || rep2.Blame[StragglerInflation] != 10 {
		t.Fatalf("clamp failed: compute %v inflation %v", rep2.Blame[Compute], rep2.Blame[StragglerInflation])
	}
}

// TestOrphanChargesUnattributed checks a causeless node charges its lead
// time from run start to Unattributed, preserving the invariant.
func TestOrphanChargesUnattributed(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	start := r.At("run-start")
	var orphan, end NodeID
	at(t, eng, 50, func() { orphan = r.At("mystery") })
	at(t, eng, 70, func() { end = r.After(orphan, Compute, "run-end", "") })
	eng.Run()
	rep := r.Solve(start, end)
	if rep.Blame[Unattributed] != 50 || rep.Blame[Compute] != 20 {
		t.Fatalf("orphan handling: unattributed %v compute %v, want 50/20",
			rep.Blame[Unattributed], rep.Blame[Compute])
	}
	if math.Abs(rep.BlameTotalSec()-rep.MakespanSec) > 1e-6 {
		t.Fatal("invariant broken by orphan")
	}
}

// TestBackwardEdgeDropped checks a mis-ordered edge cannot corrupt the walk.
func TestBackwardEdgeDropped(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	a := r.NodeAt(10, "late")
	b := r.NodeAt(5, "early")
	r.Edge(a, b, Compute, "") // backward: dropped
	if len(r.edges) != 0 {
		t.Fatalf("backward edge recorded")
	}
	r.Edge(b, a, Compute, "")
	if len(r.edges) != 1 {
		t.Fatalf("forward edge dropped")
	}
}

func TestLatencyPercentilesExact(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	// 1..100 in shuffled-ish order; nearest-rank percentiles are exact.
	for i := 100; i >= 1; i-- {
		r.ObserveTaskSec(float64(i))
	}
	r.ObserveTransferSec(7)
	s := r.NodeAt(0, "s")
	e := r.NodeAt(1, "e")
	r.Edge(s, e, Compute, "")
	rep := r.Solve(s, e)
	tl := rep.TaskLatency
	if tl.Count != 100 || tl.P50 != 50 || tl.P95 != 95 || tl.P99 != 99 || tl.Max != 100 {
		t.Fatalf("task latency stats %+v", tl)
	}
	xl := rep.TransferLatency
	if xl.Count != 1 || xl.P50 != 7 || xl.Max != 7 {
		t.Fatalf("transfer latency stats %+v", xl)
	}
}

func TestTopSegments(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	start := r.At("run-start")
	var n NodeID = start
	times := []float64{3, 10, 11, 50} // spans 3, 7, 1, 39
	for i, tt := range times {
		i := i
		n2 := r.NodeAt(sim.Time(tt), labelFor(i))
		r.Edge(n, n2, Compute, "")
		n = n2
	}
	rep := r.Solve(start, n)
	top := rep.TopSegments(2)
	if len(top) != 2 {
		t.Fatalf("got %d top segments", len(top))
	}
	if top[0].End-top[0].Start != 39 || top[1].End-top[1].Start != 7 {
		t.Fatalf("top segments wrong: %+v", top)
	}
	// Segments slice unchanged (time order).
	if rep.Segments[0].End != 3 {
		t.Fatal("TopSegments mutated Segments")
	}
}

func labelFor(i int) string {
	return string(rune('a' + i))
}

// TestCategoryStrings pins the names rendered in blame tables.
func TestCategoryStrings(t *testing.T) {
	want := []string{
		"compute", "network-transfer", "queue-wait", "detection-latency",
		"retry/backoff", "repair", "straggler-inflation",
		"speculation-overhead", "disk-io", "master-outage",
		"recovery-replay", "ctrl-plane", "unattributed",
	}
	for c := Category(0); c < NumCategories; c++ {
		if c.String() != want[c] {
			t.Errorf("Category(%d) = %q, want %q", c, c.String(), want[c])
		}
	}
	if Category(200).String() != "unknown" {
		t.Error("out-of-range category should render unknown")
	}
}
