package experiments

import (
	"fmt"

	"frieda/internal/fault"
	"frieda/internal/netsim"
	"frieda/internal/simrun"
	"frieda/internal/storage"
)

// stragglerSpec is one gray-failure regime: slow-worker episodes (compute
// rate drops to severity without any fail-stop signal), plus optional
// slow-disk and slow-link degrade schedules. Nothing here kills anything —
// that is the point: every fault below is invisible to the fail-stop
// detector.
type stragglerSpec struct {
	// mtbsSec / durSec / severity drive the per-worker compute-rate
	// episodes. mtbsSec 0 disables all injection.
	mtbsSec  float64
	durSec   float64
	severity float64
	// diskMTBFSec > 0 adds slow-disk episodes (bandwidth x0.25, 60 s mean).
	diskMTBFSec float64
	// linkMTBFSec > 0 adds slow-link episodes (capacity x0.15, 120 s mean).
	linkMTBFSec float64
}

// stragglerModes are the mitigation levels the stragglers ablation compares:
// "none" is the fail-stop-only model — gray failures are invisible, one slow
// worker stretches the makespan; "detect" adds adaptive slow-suspicion and
// stops feeding suspected workers; "spec" additionally clones a suspect's
// longest-running task to a healthy worker (first finisher wins); "hedge"
// instead races slow transfers against a second replica pull; "both" runs
// speculation and hedging together.
var stragglerModes = []string{"none", "detect", "spec", "hedge", "both"}

// runStragglers runs the real-time strategy under seeded gray faults on the
// paper's 4-worker testbed. All modes share the injection seeds — the
// injectors draw from their own RNGs, so every mode faces the identical
// episode schedule and differs only in how it responds. Everything is
// virtual-time and seeded, so equal arguments produce bit-identical results.
func runStragglers(wl simrun.Workload, spec stragglerSpec, mode string) (simrun.Result, error) {
	cfg := simrun.Config{
		Strategy:   StrictRealTime(),
		Recover:    true,
		MaxRetries: 5,
		Detection:  &simrun.DetectionConfig{K: 3},
	}
	switch mode {
	case "none":
	case "detect", "spec", "hedge", "both":
		cfg.Gray = &simrun.GrayConfig{
			Speculate: mode == "spec" || mode == "both",
			Hedge:     mode == "hedge" || mode == "both",
		}
	default:
		return simrun.Result{}, fmt.Errorf("experiments: unknown stragglers mode %q", mode)
	}
	inject := func(tb *Testbed, r *simrun.Runner) func() error {
		var stops []func()
		// Only workers straggle; the master stays healthy (its degradation is
		// the paper's acknowledged single point of failure, out of scope here).
		targets := tb.Workers
		if spec.mtbsSec > 0 {
			stops = append(stops, fault.StragglerOptions{
				Seed:        23,
				MTBSSec:     spec.mtbsSec,
				DurationSec: spec.durSec,
				Severity:    spec.severity,
			}.Schedule(tb.Engine, len(targets), func(i int, factor float64) {
				r.SetWorkerSpeed(targets[i], factor)
			}, func(i int) {
				r.SetWorkerSpeed(targets[i], 1)
			}).Stop)
		}
		if spec.diskMTBFSec > 0 {
			stops = append(stops, tb.Cluster.InjectDiskFaults(targets, storage.DiskFaultOptions{
				Seed:           29,
				DegradeMTBFSec: spec.diskMTBFSec,
				DegradeMTTRSec: 60,
				DegradeFactor:  0.25,
			}).Stop)
		}
		if spec.linkMTBFSec > 0 {
			// Degrade-mode faults: links stay up at reduced capacity, so flows
			// crawl instead of dying — exactly what hedged transfers race. The
			// master's NIC is included: a degraded source uplink is the case a
			// second pull from a worker-held replica can actually route around.
			stops = append(stops, tb.Cluster.InjectLinkFaults(tb.Cluster.VMs(), netsim.FaultOptions{
				Seed:          31,
				MTBFSec:       spec.linkMTBFSec,
				MTTRSec:       120,
				DegradeFactor: 0.15,
			}).Stop)
		}
		return func() error {
			for _, stop := range stops {
				stop()
			}
			return nil
		}
	}
	return runCell(fmt.Sprintf("%s stragglers mtbs=%.0f %s", wl.Name, spec.mtbsSec, mode), NewTestbed(4, 7), cfg, wl, inject)
}

// stragglerSweep runs the (param × mode) grid and assembles one row per
// parameter: makespan per mitigation mode, completion fraction at the
// extremes, and the "both" mode's mitigation counters — the direct evidence
// of what the machinery did and what it wasted.
func stragglerSweep(sweepName string, mkWL func() simrun.Workload, params []float64, specFor func(p float64) stragglerSpec) ([]SweepRow, error) {
	grid, err := sweepGrid(sweepName, params, stragglerModes, func(p float64, mode string) (simrun.Result, error) {
		return runStragglers(mkWL(), specFor(p), mode)
	})
	rows := make([]SweepRow, 0, len(params))
	for i, p := range params {
		row := SweepRow{Param: p, Series: map[string]float64{}}
		for j, mode := range stragglerModes {
			res := grid[i][j]
			row.Series[mode+"_makespan_s"] = res.MakespanSec
			switch mode {
			case "none":
				row.Series["none_done_pct"] = donePct(res)
				attribCols(row.Series, "none_", res)
			case "both":
				row.Series["both_done_pct"] = donePct(res)
				attribCols(row.Series, "both_", res)
				row.Series["both_suspected"] = float64(res.StragglersSuspected)
				row.Series["both_spec_launched"] = float64(res.SpeculativeLaunched)
				row.Series["both_spec_won"] = float64(res.SpeculativeWon)
				row.Series["both_wasted_s"] = res.SpeculativeWastedSec
				row.Series["both_hedges"] = float64(res.HedgedTransfers)
			}
		}
		rows = append(rows, row)
	}
	return rows, err
}

// chunkTasks merges every k consecutive tasks into one dispatch batch:
// inputs concatenate, compute sums. The gray-failure ablation batches
// dispatches because per-query dispatch lets the pull model self-balance
// around a straggler almost for free — production BLAST amortises dispatch
// overhead the same way, and a batched dispatch is the regime where a
// stranded unit of work is expensive enough to be worth rescuing.
func chunkTasks(wl simrun.Workload, k int) simrun.Workload {
	if k <= 1 {
		return wl
	}
	batched := make([]simrun.TaskSpec, 0, (len(wl.Tasks)+k-1)/k)
	for start := 0; start < len(wl.Tasks); start += k {
		end := start + k
		if end > len(wl.Tasks) {
			end = len(wl.Tasks)
		}
		t := simrun.TaskSpec{Index: len(batched)}
		for _, src := range wl.Tasks[start:end] {
			t.Files = append(t.Files, src.Files...)
			t.ComputeSec += src.ComputeSec
		}
		batched = append(batched, t)
	}
	wl.Tasks = batched
	return wl
}

// AblationStragglers sweeps the per-worker straggle MTBS and compares the
// five mitigation levels under combined slow-worker + slow-disk + slow-link
// injection. Episodes run at a tenth of provisioned speed for a quarter of
// the MTBS on average, so the heaviest parameter keeps each worker degraded
// ~20% of the time — gray weather, not an outage. MTBS values are chosen per
// app to span "no faults" to "straggling is routine": ALS runs ~12 minutes,
// BLAST ~70 at paper scale.
func AblationStragglers(app string, scale float64) ([]SweepRow, error) {
	mkWL, err := workloadBuilder(app, scale)
	if err != nil {
		return nil, err
	}
	mtbs := []float64{0, 2000, 1000, 500}
	chunk := 10
	if app == "BLAST" {
		mtbs = []float64{0, 16000, 8000, 4000}
		chunk = 30
	}
	mkBatched := func() simrun.Workload { return chunkTasks(mkWL(), chunk) }
	return stragglerSweep("stragglers/"+app, mkBatched, mtbs, func(p float64) stragglerSpec {
		if p <= 0 {
			return stragglerSpec{}
		}
		return stragglerSpec{
			mtbsSec:     p,
			durSec:      p / 3,
			severity:    0.05,
			diskMTBFSec: p * 2,
			linkMTBFSec: p,
		}
	})
}
