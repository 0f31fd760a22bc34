package experiments

import (
	"runtime"
	"testing"

	"frieda/internal/cloud"
	"frieda/internal/sim"
	"frieda/internal/simrun"
)

// The paper's sweep allocates far less than one object per fired event: its
// flows, stage-ins, task attempts and events come from arena chunks, which
// the cell reuses as each record's use ends, there is no closure, and the
// workload is built from one file array and one name string. One Fig. 6
// real-time cell of each application, workload build included as every
// sweep cell builds its own, measures at most 0.0446 mallocs per fired event
// for ALS (165 to 166 per run over 3,725 events) and 0.0040 for BLAST (176
// to 178 over 44,985); the events include each instant's rebalance and
// admission pass, and three of the mallocs are that schedule's, once per
// cell (the engine's same-instant queue, the dirty-link set, the admission
// list). Each bound is that plus 2%, so a closure or a slice per task
// (+0.17 per event in either cell) fails it.
func TestPaperSweepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var eng *sim.Engine
	Instrument = func(_ string, cluster *cloud.Cluster, _ *simrun.Config) { eng = cluster.Engine() }
	defer func() { Instrument = nil }()
	for _, c := range []struct {
		app   string
		limit float64
	}{
		{"ALS", 0.0446 * 1.02},
		{"BLAST", 0.0040 * 1.02},
	} {
		mk, err := workloadBuilder(c.app, 1)
		if err != nil {
			t.Fatal(err)
		}
		perRun := testing.AllocsPerRun(3, func() {
			if _, err := RunStrategy(realTime(), mk(), 4, 1); err != nil {
				t.Fatal(err)
			}
		})
		fired := eng.Fired()
		per := perRun / float64(fired)
		t.Logf("%s: %.4f allocations per fired event (%.0f over %d events)", c.app, per, perRun, fired)
		if per > c.limit {
			t.Errorf("%s real-time cell makes %.4f allocations per fired event (%.0f over %d events), want <= %.4f",
				c.app, per, perRun, fired, c.limit)
		}
	}
}

// The paper's sweep allocates few bytes per fired event: beside the mallocs
// TestPaperSweepAllocations counts, the arena chunks its records come from
// are few, because a cell takes back its flows, stage-ins and task attempts
// as their use ends. One Fig. 6 real-time cell of each application, workload
// build included, measures 77.7 to 78.3 bytes per fired event for ALS
// (289,603 to 291,571 per run over 3,725 events) and at most 43.1 for
// BLAST (1.94 MB over 44,985); the events include each instant's rebalance
// and admission pass. Before records were taken back they read 361.4 and
// 289.3 per event of a schedule with half as many events. Each bound is
// 78.2 or 43.1 plus 2%, so chunks that grow with the task count again fail
// it.
func TestPaperSweepBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var eng *sim.Engine
	Instrument = func(_ string, cluster *cloud.Cluster, _ *simrun.Config) { eng = cluster.Engine() }
	defer func() { Instrument = nil }()
	for _, c := range []struct {
		app   string
		limit float64
	}{
		{"ALS", 78.2 * 1.02},
		{"BLAST", 43.1 * 1.02},
	} {
		mk, err := workloadBuilder(c.app, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := RunStrategy(realTime(), mk(), 4, 1); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 3
		run() // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		fired := eng.Fired()
		per := perRun / float64(fired)
		t.Logf("%s: %.1f bytes per fired event (%.0f over %d events)", c.app, per, perRun, fired)
		if per > c.limit {
			t.Errorf("%s real-time cell allocates %.1f bytes per fired event (%.0f over %d events), want <= %.1f",
				c.app, per, perRun, fired, c.limit)
		}
	}
}

// Setting up a cell costs a constant number of objects, whatever its size:
// a ScaleSweep cell's testbed, its runner with every worker joined, and its
// start, which stages the BLAST database to every worker, build slabs,
// reserved chunks and slices that double, not objects per worker. Eight
// times the workers may add only the doublings and the chunks of events
// that boot the VMs.
func TestScaleCellSetupIsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	wl := BLASTWorkload(1, 1)
	setup := func(workers int) float64 {
		return testing.AllocsPerRun(1, func() {
			tb := NewTreeTestbed(workers, 1)
			r, err := prepare("setup", tb, realTime(), wl)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start(func(simrun.Result) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := setup(1024), setup(8192)
	t.Logf("setup allocates %.0f objects at 1,024 workers and %.0f at 8,192", small, large)
	if large-small >= 64 {
		t.Fatalf("setup allocates %.0f objects at 1,024 workers but %.0f at 8,192: %.0f more, want < 64",
			small, large, large-small)
	}
}
