package simrun

import (
	"math"
	"testing"

	"frieda/internal/catalog"
	"frieda/internal/strategy"
)

// grayDetection is the heartbeat config the gray tests ride watermarks on.
func grayDetection() *DetectionConfig {
	return &DetectionConfig{K: 3}
}

func TestGrayRequiresDetection(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.Config{Kind: strategy.RealTime}, Gray: &GrayConfig{}}
	if _, err := NewRunner(cluster, vms[0], cfg, Workload{Tasks: uniformTasks(1, 1, 0)}); err == nil {
		t.Fatal("Gray without Detection accepted")
	}
}

// TestSetWorkerSpeedStretchesRemainingWork: slowing a worker mid-task must
// stretch exactly the remaining work, and restoring speed must shrink it the
// same way — the rate change may not touch work already done.
func TestSetWorkerSpeedStretchesRemainingWork(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.Config{Kind: strategy.RealTime}}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(1, 100, 0)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	// 50 s at full speed (50 work left), 100 s at 0.25 (25 left), then full
	// speed again: 50 + 100 + 25 = 175 s.
	eng.At(50, func() { r.SetWorkerSpeed(vms[1], 0.25) })
	eng.At(150, func() { r.SetWorkerSpeed(vms[1], 1) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 1 || math.Abs(res.MakespanSec-175) > 1e-6 {
		t.Fatalf("makespan = %v (succeeded %d), want 175", res.MakespanSec, res.Succeeded)
	}
	if got := r.worker(vms[1]).speed; got != 1 {
		t.Fatalf("worker speed = %v", got)
	}
}

// TestSpeculationRescuesStraggler: a silently slowed worker keeps
// heartbeating, so only the adaptive ladder notices; its stranded task must
// be cloned to a healthy worker, the clone must win, and the loser must be
// cancelled with its effort accounted as waste.
func TestSpeculationRescuesStraggler(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{
		Strategy:  strategy.Config{Kind: strategy.RealTime},
		Detection: grayDetection(),
		Gray:      &GrayConfig{Speculate: true},
	}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(6, 30, 0)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:4] {
		r.AddWorker(vm)
	}
	// w1 collapses to 1% mid-first-task and never recovers. Unmitigated,
	// its 30 s task alone would take ~2975 s.
	eng.At(0.5, func() { r.SetWorkerSpeed(vms[1], 0.01) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 6 {
		t.Fatalf("succeeded %d of 6: %+v", res.Succeeded, res)
	}
	if res.StragglersSuspected == 0 || res.SpeculativeLaunched == 0 || res.SpeculativeWon == 0 {
		t.Fatalf("no speculation: suspected %d launched %d won %d",
			res.StragglersSuspected, res.SpeculativeLaunched, res.SpeculativeWon)
	}
	if res.SpeculativeWastedSec <= 0 {
		t.Fatalf("cancelled loser accounted no waste: %v", res.SpeculativeWastedSec)
	}
	if res.MakespanSec > 300 {
		t.Fatalf("makespan %v: speculation did not rescue the stranded task", res.MakespanSec)
	}
	var winners, losers int
	for _, c := range res.Completions {
		if c.Speculative && c.Cancelled {
			losers++
		}
		if c.Speculative && !c.Cancelled {
			winners++
		}
	}
	if winners != res.SpeculativeWon || losers != res.SpeculativeLaunched {
		t.Fatalf("completions record %d winners/%d losers, counters say %d/%d",
			winners, losers, res.SpeculativeWon, res.SpeculativeLaunched)
	}
}

// hedgeWorkload sets up the hedge race: task0 parks w1 with f0 resident,
// task1 occupies w2 long enough for the master's uplink to degrade before w2
// fetches f0 for task2 — the fetch that crawls and must be hedged from w1's
// replica.
func hedgeWorkload() Workload {
	f0 := catalog.FileMeta{Name: "f0", Size: 80_000_000}
	f1 := catalog.FileMeta{Name: "f1", Size: 80_000_000}
	return Workload{Name: "hedge", Tasks: []TaskSpec{
		{Index: 0, Files: []catalog.FileMeta{f0}, ComputeSec: 100},
		{Index: 1, Files: []catalog.FileMeta{f1}, ComputeSec: 15},
		{Index: 2, Files: []catalog.FileMeta{f0}, ComputeSec: 1},
	}}
}

func runHedge(t *testing.T, hedge bool) Result {
	t.Helper()
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{
		Strategy:  strategy.Config{Kind: strategy.RealTime, Locality: strategy.Remote, Placement: strategy.DataToCompute},
		Detection: grayDetection(),
		Gray:      &GrayConfig{Hedge: hedge},
	}
	r, err := NewRunner(cluster, vms[0], cfg, hedgeWorkload())
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	r.AddWorker(vms[2])
	// Both initial fetches share the master's uplink and finish ~12.8 s in,
	// seeding the goodput average at ~50 Mbps. At t=20 the uplink silently
	// degrades to 2% — never failing, so nothing fail-stop fires — and w2's
	// f0 fetch at ~27.8 s crawls at 2 Mbps against a 50 Mbps expectation.
	eng.At(20, func() { cluster.Network().DegradeLink(vms[0].Host().Up(), 0.02) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 3 {
		t.Fatalf("succeeded %d of 3 (hedge=%v): %+v", res.Succeeded, hedge, res)
	}
	return res
}

// TestHedgedTransferRacesDegradedSource: the crawling fetch must be raced by
// a second pull from the worker replica and the run must finish roughly as
// if the degradation never happened; without hedging the fetch serves out
// its ~320 s sentence.
func TestHedgedTransferRacesDegradedSource(t *testing.T) {
	slow := runHedge(t, false)
	fast := runHedge(t, true)
	if slow.HedgedTransfers != 0 {
		t.Fatalf("hedging disabled but %d hedges ran", slow.HedgedTransfers)
	}
	if slow.MakespanSec < 300 {
		t.Fatalf("unhedged makespan %v: degradation had no bite", slow.MakespanSec)
	}
	if fast.HedgedTransfers != 1 {
		t.Fatalf("hedges = %d, want 1", fast.HedgedTransfers)
	}
	if fast.MakespanSec > 150 {
		t.Fatalf("hedged makespan %v: hedge did not win the race", fast.MakespanSec)
	}
}

// TestGrayDetectOnlyIsInertWithoutInjection: turning the gray machinery on
// must not change a healthy run at all.
func TestGrayDetectOnlyIsInertWithoutInjection(t *testing.T) {
	run := func(gray bool) Result {
		_, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		cfg.Detection = grayDetection()
		if gray {
			cfg.Gray = &GrayConfig{Speculate: true, Hedge: true}
		}
		wl := Workload{Name: "mix", Tasks: uniformTasks(12, 5, 10_000_000)}
		return runOn(t, cluster, vms[0], vms[1:4], cfg, wl)
	}
	plain, gray := run(false), run(true)
	if plain.MakespanSec != gray.MakespanSec {
		t.Fatalf("gray machinery perturbed a healthy run: %v vs %v", plain.MakespanSec, gray.MakespanSec)
	}
	if gray.StragglersSuspected != 0 || gray.SpeculativeLaunched != 0 || gray.HedgedTransfers != 0 {
		t.Fatalf("healthy run triggered mitigation: %+v", gray)
	}
}

// A clone whose input was lost to a disk death fails at once, inside
// maybeSpeculate, and settles as an ordinary failed attempt before a race
// could form. No race may form with it afterwards: its connection timeout
// releases it, and an attempt still in a race must not be released.
func TestSpeculationOnLostInput(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{
		Strategy:    strategy.RealTimeRemote,
		Detection:   grayDetection(),
		Gray:        &GrayConfig{Speculate: true},
		Durability:  &DurabilityConfig{RF: 1, EvacuateSource: true, Seed: 7},
		ModelDiskIO: true,
	}
	r, err := NewRunner(cluster, vms[0], cfg, Workload{Name: "w", Tasks: uniformTasks(1, 100, 1_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	r.AddWorker(vms[2])
	var g *grayHook
	for _, h := range r.hooks {
		if gh, ok := h.(*grayHook); ok {
			g = gh
		}
	}
	finished := false
	if err := r.Start(func(Result) { finished = true }); err != nil {
		t.Fatal(err)
	}
	// Run until the task has computed past the speculation threshold.
	var sw *simWorker
	for sw == nil && eng.Step() {
		for _, w := range r.workers {
			if h := w.Handle(0); h != nil {
				if att := *h; att.compute.Pending() && float64(eng.Now()-att.started) >= speculateAfterSec {
					sw = w
				}
			}
		}
	}
	if sw == nil {
		t.Fatal("the task never computed past the speculation threshold")
	}
	primary := *sw.Handle(0)
	cluster.FailDisk(sw.vm) // the only copy of the task's input
	if !durabilityOf(r).lost[r.led.Inputs(0)[0]] {
		t.Fatal("disk death did not lose the task's input")
	}
	g.maybeSpeculate(sw)
	if r.res.SpeculativeLaunched != 1 {
		t.Fatalf("%d clones launched, want 1", r.res.SpeculativeLaunched)
	}
	if g.races != 0 || primary.race != nil {
		t.Fatal("a race formed with a clone that had already failed")
	}
	for eng.Step() { // past the clone's connection timeout
	}
	if !finished {
		t.Fatal("run did not finish")
	}
}
