package trace

import (
	"math"
	"strings"
	"testing"

	"frieda/internal/obs"
	"frieda/internal/sim"
	"frieda/internal/simrun"
)

func sampleResult() simrun.Result {
	return simrun.Result{
		MakespanSec:     10,
		TransferWallSec: 4,
		ExecWallSec:     8,
		BytesMoved:      1e6,
		Completions: []simrun.Completion{
			{Task: 0, Worker: "vm-1", Start: 0, End: 3, OK: true, Attempt: 1},
			{Task: 1, Worker: "vm-1", Start: 3, End: 6, OK: true, Attempt: 1},
			{Task: 2, Worker: "vm-2", Start: 1, End: 9, OK: true, Attempt: 1},
			{Task: 3, Worker: "vm-2", Start: 9, End: 10, OK: false, Attempt: 2},
		},
	}
}

func TestLanes(t *testing.T) {
	lanes := Lanes(sampleResult().Completions, 10)
	if len(lanes) != 2 {
		t.Fatalf("lanes = %d", len(lanes))
	}
	if lanes[0].Worker != "vm-1" || lanes[0].Tasks != 2 || lanes[0].BusySec != 6 {
		t.Fatalf("lane 0 = %+v", lanes[0])
	}
	// Failed completion counted separately, not in busy time.
	if lanes[1].Tasks != 1 || lanes[1].Failed != 1 || lanes[1].BusySec != 8 {
		t.Fatalf("lane 1 = %+v", lanes[1])
	}
	// Utilisation is against the run's makespan: vm-1 is busy 6 of 10 s even
	// though its own span (0..6) was fully busy.
	if math.Abs(lanes[0].Utilisation()-0.6) > 1e-9 {
		t.Fatalf("vm-1 util = %v", lanes[0].Utilisation())
	}
	if math.Abs(lanes[1].Utilisation()-0.8) > 1e-9 {
		t.Fatalf("vm-2 util = %v", lanes[1].Utilisation())
	}
}

func TestLanesNoMakespanFallsBack(t *testing.T) {
	lanes := Lanes(sampleResult().Completions, 0)
	// Without a makespan the old lane-span denominator applies.
	if math.Abs(lanes[0].Utilisation()-1.0) > 1e-9 {
		t.Fatalf("vm-1 util = %v", lanes[0].Utilisation())
	}
}

func TestUtilisationEmptyLane(t *testing.T) {
	if (WorkerLane{}).Utilisation() != 0 {
		t.Fatal("empty lane utilisation should be 0")
	}
}

func TestGantt(t *testing.T) {
	out := Gantt(sampleResult(), 20)
	if !strings.Contains(out, "vm-1") || !strings.Contains(out, "vm-2") {
		t.Fatalf("missing workers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// vm-1 busy 0..6 of 10 s: first ~12 of 20 buckets are '#'.
	row := lines[1]
	if !strings.Contains(row, "#") || !strings.Contains(row, ".") {
		t.Fatalf("row lacks both busy and idle: %q", row)
	}
	// vm-2's failed completion ends at t=10: an 'x' in the last bucket and a
	// failure note instead of a silent drop.
	vm2 := lines[2]
	if !strings.HasSuffix(strings.TrimRight(vm2, " "), "1 ok, 1 failed") {
		t.Fatalf("vm-2 note = %q", vm2)
	}
	bar := vm2[strings.IndexByte(vm2, '|')+1 : strings.LastIndexByte(vm2, '|')]
	if bar[len(bar)-1] != 'x' {
		t.Fatalf("vm-2 row missing failure glyph: %q", bar)
	}
	if Gantt(simrun.Result{}, 20) != "(empty run)\n" {
		t.Fatal("empty run not handled")
	}
	// Default width.
	if !strings.Contains(Gantt(sampleResult(), 0), "timeline") {
		t.Fatal("default width broken")
	}
}

func TestGanttFailedOnlyWorker(t *testing.T) {
	res := simrun.Result{
		MakespanSec: 10,
		Completions: []simrun.Completion{
			{Task: 0, Worker: "vm-1", Start: 0, End: 4, OK: true, Attempt: 1},
			{Task: 1, Worker: "", End: 10, OK: false, Attempt: 1},
		},
	}
	out := Gantt(res, 20)
	if !strings.Contains(out, "(unrun)") {
		t.Fatalf("unassigned failures dropped:\n%s", out)
	}
	if !strings.Contains(out, "0 ok, 1 failed") {
		t.Fatalf("failure note missing:\n%s", out)
	}
}

func TestSummaryGolden(t *testing.T) {
	got := Summary(sampleResult())
	want := strings.Join([]string{
		"worker        tasks   failed    busy(s)    span(s)     util",
		"vm-1              2        0        6.0        6.0    60.0%",
		"vm-2              1        1        8.0        8.0    80.0%",
		"makespan 10.0s, transfer wall 4.0s, exec wall 8.0s, 1000000 bytes moved",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("summary golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSummaryDurabilityLine(t *testing.T) {
	res := sampleResult()
	res.FilesLost = 2
	res.CorruptionsDetected = 3
	res.RepairsCompleted = 4
	res.RepairBytes = 5e6
	out := Summary(res)
	want := "durability: 2 files lost, 3 corruptions detected, 4 repairs (5000000 repair bytes)\n"
	if !strings.HasSuffix(out, want) {
		t.Fatalf("durability line missing or wrong:\n%s", out)
	}
	// Runs without durability activity render exactly as before.
	if strings.Contains(Summary(sampleResult()), "durability") {
		t.Fatal("durability line printed for a clean run")
	}
}

func TestSpanSummary(t *testing.T) {
	if got := SpanSummary(nil); got != "(no trace recorded)\n" {
		t.Fatalf("nil tracer = %q", got)
	}
	eng := sim.NewEngine()
	tr := obs.NewTracer(eng, "demo")
	var task, xfer *obs.Span
	eng.Schedule(0, func() {
		xfer = tr.Begin("vm-1/net0", "transfer", "stage common", nil)
		tr.Instant("vm-1", "sched", "dispatch", nil)
	})
	eng.Schedule(4, func() {
		xfer.End(nil)
		task = tr.Begin("vm-1/cpu0", "task", "task 0", nil)
	})
	eng.Schedule(10, func() { task.End(nil) })
	eng.Run()
	out := SpanSummary(tr)
	for _, want := range []string{
		"span summary for demo",
		"vm-1", // aggregated across the worker's cpu and net tracks
		"compute wall 6.0s, transfer wall 4.0s, overlap 0.0s",
		"sched/dispatch 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("span summary missing %q:\n%s", want, out)
		}
	}
}

func TestSpanSummaryRepairColumn(t *testing.T) {
	eng := sim.NewEngine()
	tr := obs.NewTracer(eng, "chaos")
	var task, rep *obs.Span
	eng.Schedule(0, func() {
		task = tr.Begin("vm-1/cpu0", "task", "task 0", nil)
		rep = tr.Begin("vm-2/net0", "repair", "repair f0001", nil)
		tr.Instant("master", "fault", "file-lost", nil)
	})
	eng.Schedule(3, func() { rep.End(nil) })
	eng.Schedule(5, func() { task.End(nil) })
	eng.Run()
	out := SpanSummary(tr)
	for _, want := range []string{
		"repairs", "repair(s)", // column appears when repair spans exist
		"fault/file-lost 1", // lost files surface via the instants line
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("span summary missing %q:\n%s", want, out)
		}
	}
	// The vm-2 row carries the repair aggregate: 1 repair, 3.0 s.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "vm-2") && strings.Contains(line, "1") && strings.Contains(line, "3.0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("vm-2 repair aggregate missing:\n%s", out)
	}
	// A repair-free trace keeps the legacy header.
	eng2 := sim.NewEngine()
	tr2 := obs.NewTracer(eng2, "plain")
	var t2 *obs.Span
	eng2.Schedule(0, func() { t2 = tr2.Begin("vm-1/cpu0", "task", "task 0", nil) })
	eng2.Schedule(1, func() { t2.End(nil) })
	eng2.Run()
	if strings.Contains(SpanSummary(tr2), "repairs") {
		t.Fatal("repair column printed for a repair-free trace")
	}
}

// specResult is a run with a speculative race: the clone on vm-2 won, the
// stranded primary on vm-1 was cancelled.
func specResult() simrun.Result {
	return simrun.Result{
		MakespanSec:          10,
		StragglersSuspected:  1,
		SpeculativeLaunched:  1,
		SpeculativeWon:       1,
		SpeculativeWastedSec: 6,
		Completions: []simrun.Completion{
			{Task: 0, Worker: "vm-1", Start: 0, End: 4, OK: true, Attempt: 1},
			{Task: 1, Worker: "vm-1", Start: 4, End: 10, Attempt: 1, Speculative: true, Cancelled: true},
			{Task: 1, Worker: "vm-2", Start: 6, End: 10, OK: true, Attempt: 1, Speculative: true},
		},
	}
}

func TestGanttSpeculationGlyphs(t *testing.T) {
	out := Gantt(specResult(), 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// vm-1: '#' for the ordinary task, 'c' where its stranded attempt was
	// cancelled — distinct from the 'x' of a genuine failure.
	vm1 := lines[1]
	bar := vm1[strings.IndexByte(vm1, '|')+1 : strings.LastIndexByte(vm1, '|')]
	if !strings.Contains(bar, "#") || bar[len(bar)-1] != 'c' {
		t.Fatalf("vm-1 bar = %q, want '#' body and trailing 'c'", bar)
	}
	if !strings.Contains(vm1, "1 tasks, 1 cancelled") {
		t.Fatalf("vm-1 note = %q", vm1)
	}
	// vm-2: the winning clone renders as 's', not '#'.
	vm2 := lines[2]
	bar2 := vm2[strings.IndexByte(vm2, '|')+1 : strings.LastIndexByte(vm2, '|')]
	if !strings.Contains(bar2, "s") || strings.Contains(bar2, "#") {
		t.Fatalf("vm-2 bar = %q, want 's' spans only", bar2)
	}
}

func TestSummaryGrayLine(t *testing.T) {
	out := Summary(specResult())
	if !strings.Contains(out, "gray: 1 slow-suspected, 1 speculative (1 won, 6.0s wasted), 0 hedged transfers") {
		t.Fatalf("gray line missing:\n%s", out)
	}
	// Runs without gray activity keep the legacy rendering.
	if strings.Contains(Summary(sampleResult()), "gray:") {
		t.Fatal("gray line printed for a gray-free run")
	}
}

func TestSpanSummarySpecColumn(t *testing.T) {
	eng := sim.NewEngine()
	tr := obs.NewTracer(eng, "gray")
	var task, clone *obs.Span
	eng.Schedule(0, func() {
		task = tr.Begin("vm-1/cpu0", "task", "task 0", nil)
		tr.Instant("vm-2", "spec", "spec-launched", nil)
		clone = tr.Begin("vm-2/cpu0", "spec", "task 1 (clone)", nil)
	})
	eng.Schedule(3, func() { clone.End(nil) })
	eng.Schedule(5, func() { task.End(nil) })
	eng.Run()
	out := SpanSummary(tr)
	for _, want := range []string{
		"spec", "spec(s)", // column appears when clone spans exist
		"spec/spec-launched 1", // launches surface via the instants line
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("span summary missing %q:\n%s", want, out)
		}
	}
	// vm-2's row carries the clone aggregate (1 clone, 3.0 s), and clone
	// compute counts toward the compute wall: union of [0,5] and [0,3] = 5.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "vm-2") && strings.Contains(line, "3.0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("vm-2 spec aggregate missing:\n%s", out)
	}
	if !strings.Contains(out, "compute wall 5.0s") {
		t.Fatalf("clone compute missing from wall:\n%s", out)
	}
	// A speculation-free trace keeps the legacy header.
	eng2 := sim.NewEngine()
	tr2 := obs.NewTracer(eng2, "plain")
	var t2 *obs.Span
	eng2.Schedule(0, func() { t2 = tr2.Begin("vm-1/cpu0", "task", "task 0", nil) })
	eng2.Schedule(1, func() { t2.End(nil) })
	eng2.Run()
	if strings.Contains(SpanSummary(tr2), "spec(s)") {
		t.Fatal("spec column printed for a speculation-free trace")
	}
}

// TestSpanSummaryRepairAndSpecColumns: a chaos run with gray mitigation
// records both repair and spec spans; both optional column groups must
// render side by side on the same header, in that order, with each worker
// row carrying its own aggregate.
func TestSpanSummaryRepairAndSpecColumns(t *testing.T) {
	eng := sim.NewEngine()
	tr := obs.NewTracer(eng, "chaos+gray")
	var task, rep, clone *obs.Span
	eng.Schedule(0, func() {
		task = tr.Begin("vm-1/cpu0", "task", "task 0", nil)
		rep = tr.Begin("vm-2/net0", "repair", "repair f0001", nil)
		clone = tr.Begin("vm-3/cpu0", "spec", "task 0 (clone)", nil)
	})
	eng.Schedule(2, func() { rep.End(nil) })
	eng.Schedule(3, func() { clone.End(nil) })
	eng.Schedule(5, func() { task.End(nil) })
	eng.Run()
	out := SpanSummary(tr)
	header := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "worker") {
			header = line
		}
	}
	if header == "" {
		t.Fatalf("no header line:\n%s", out)
	}
	ri, si := strings.Index(header, "repair(s)"), strings.Index(header, "spec(s)")
	if ri < 0 || si < 0 {
		t.Fatalf("header missing a column group: %q", header)
	}
	if ri > si {
		t.Fatalf("repair columns must precede spec columns: %q", header)
	}
	wantRow := map[string]string{"vm-2": "2.0", "vm-3": "3.0"}
	for worker, sec := range wantRow {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, worker) && strings.Contains(line, sec) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s aggregate (%ss) missing:\n%s", worker, sec, out)
		}
	}
	// Clone compute joins the wall: union of [0,5] task and [0,3] clone.
	if !strings.Contains(out, "compute wall 5.0s") {
		t.Fatalf("walls wrong:\n%s", out)
	}
}

// TestSpanSummaryHistogramPercentiles: metrics registries passed to the
// variadic SpanSummary contribute one interpolated-percentile line per
// populated histogram; empty histograms and nil registries stay silent.
func TestSpanSummaryHistogramPercentiles(t *testing.T) {
	eng := sim.NewEngine()
	tr := obs.NewTracer(eng, "demo")
	var task *obs.Span
	eng.Schedule(0, func() { task = tr.Begin("vm-1/cpu0", "task", "task 0", nil) })
	eng.Schedule(4, func() { task.End(nil) })
	eng.Run()

	m := obs.NewMetrics(eng, "demo", 10)
	h := m.Histogram("task_sec", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3} {
		h.Observe(v)
	}
	m.Histogram("transfer_sec", []float64{1}) // never observed: no line

	out := SpanSummary(tr, m, nil)
	if !strings.Contains(out, "task_sec: n=4 p50 1.500s") {
		t.Fatalf("percentile line missing:\n%s", out)
	}
	if strings.Contains(out, "transfer_sec") {
		t.Fatalf("empty histogram rendered:\n%s", out)
	}
	// Without registries the summary is unchanged from the legacy form.
	if strings.Contains(SpanSummary(tr), "task_sec") {
		t.Fatal("histogram line printed without a registry")
	}
}
