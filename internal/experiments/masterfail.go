package experiments

import (
	"fmt"

	"frieda/internal/fault"
	"frieda/internal/netsim"
	"frieda/internal/obs/attrib"
	"frieda/internal/simrun"
)

// masterFailSpec is one control-plane fault regime: mean master up-time and
// mean outage duration. mtbfSec 0 disables crash injection — every mode
// then runs the identical fault-free schedule, the sanity row showing the
// journal costs nothing when nothing goes wrong.
type masterFailSpec struct {
	mtbfSec float64
	mttrSec float64
}

// masterFailModes are the recovery designs the masterfail ablation
// compares: "crashfree" is the published prototype's immortal master — the
// paper's acknowledged single point of failure, kept as the reference
// schedule; "journal" crashes the master but recovers from a write-ahead
// journal of every catalog mutation (replayed and byte-checked against the
// live state on every restart); "amnesia" crashes the same master with no
// persistent state — it re-derives what it can and pays for the rest by
// re-executing completed tasks and declaring unlocatable evacuated files
// lost.
var masterFailModes = []string{"crashfree", "journal", "amnesia"}

// runMasterFail runs the real-time strategy with RF=2 durability (sources
// evacuated to the worker pool — the regime where the replica map is
// load-bearing) under seeded master crash episodes plus degraded-link
// chaos on the paper's 4-worker testbed. The data plane outlives the
// master process: in-flight transfers and computes continue across every
// outage, and worker reports queue for redelivery. Everything is
// virtual-time and seeded, so equal arguments produce bit-identical
// results.
func runMasterFail(wl simrun.Workload, spec masterFailSpec, linkMTBFSec float64, mode string) (simrun.Result, error) {
	cfg := simrun.Config{
		Strategy:   StrictRealTime(),
		Recover:    true,
		MaxRetries: 5,
		Detection:  &simrun.DetectionConfig{K: 3},
		Durability: &simrun.DurabilityConfig{
			RF: 2, ScanPeriodSec: 5, MaxConcurrentRepairs: 4,
			EvacuateSource: true, Seed: 17,
		},
	}
	switch mode {
	case "crashfree":
	case "journal", "amnesia":
		cfg.Master = &simrun.MasterConfig{Journal: mode == "journal"}
		if spec.mtbfSec > 0 {
			cfg.Master.Faults = &fault.MasterFaultOptions{
				Seed: 23, MTBFSec: spec.mtbfSec, MTTRSec: spec.mttrSec,
			}
		}
	default:
		return simrun.Result{}, fmt.Errorf("experiments: unknown masterfail mode %q", mode)
	}
	// Degrade-mode link chaos on the workers: flows crawl through it rather
	// than dying, so the comparison isolates what the *control-plane* outage
	// costs — no injector here destroys bytes, which is exactly why any file
	// the amnesiac master loses is the replica map's doing.
	var inject injector
	if linkMTBFSec > 0 {
		inject = func(tb *Testbed, _ *simrun.Runner) func() error {
			inj := tb.Cluster.InjectLinkFaults(tb.Workers, netsim.FaultOptions{
				Seed: 11, MTBFSec: linkMTBFSec, MTTRSec: 60, DegradeFactor: 0.25,
			})
			return func() error { inj.Stop(); return nil }
		}
	}
	return runCell(fmt.Sprintf("%s masterfail mtbf=%.0f %s", wl.Name, spec.mtbfSec, mode), NewTestbed(4, 7), cfg, wl, inject)
}

// masterFailSweep runs the (param × mode) grid and assembles one row per
// crash rate: completion fraction and makespan per mode, the journal mode's
// outage/replay accounting, and the amnesia mode's re-execution and loss
// tallies — the direct cost of running the same crash schedule without a
// journal.
func masterFailSweep(sweepName string, mkWL func() simrun.Workload, params []float64, linkMTBFSec float64, specFor func(p float64) masterFailSpec) ([]SweepRow, error) {
	grid, err := sweepGrid(sweepName, params, masterFailModes, func(p float64, mode string) (simrun.Result, error) {
		return runMasterFail(mkWL(), specFor(p), linkMTBFSec, mode)
	})
	rows := make([]SweepRow, 0, len(params))
	for i, p := range params {
		row := SweepRow{Param: p, Series: map[string]float64{}}
		for j, mode := range masterFailModes {
			res := grid[i][j]
			row.Series[mode+"_done_pct"] = donePct(res)
			row.Series[mode+"_makespan_s"] = res.MakespanSec
			switch mode {
			case "journal":
				row.Series["journal_outages"] = float64(res.MasterOutages)
				row.Series["journal_down_s"] = res.MasterDownSec
				row.Series["journal_replay_s"] = res.RecoveryReplaySec
				row.Series["journal_records"] = float64(res.ReplayedRecords)
				attribCols(row.Series, "journal_", res)
				outageCols(row.Series, "journal_", res)
			case "amnesia":
				row.Series["amnesia_reexec"] = float64(res.TasksReExecuted)
				row.Series["amnesia_lost"] = float64(res.FilesLost)
				row.Series["amnesia_orphans"] = float64(res.OrphansReconciled)
				attribCols(row.Series, "amnesia_", res)
				outageCols(row.Series, "amnesia_", res)
			}
		}
		rows = append(rows, row)
	}
	return rows, err
}

// outageCols adds the control-plane blame columns for one run under the
// given series prefix: seconds of the critical path spent with the master
// down, and spent replaying its state on restart. Like attribCols, the
// columns appear only when the run carried an attribution recorder.
func outageCols(series map[string]float64, prefix string, res simrun.Result) {
	rep := res.Attribution
	if rep == nil {
		return
	}
	series[prefix+"cp_outage_s"] = rep.Blame[attrib.MasterOutage]
	series[prefix+"cp_replay_s"] = rep.Blame[attrib.RecoveryReplay]
}

// AblationMasterFail sweeps the master crash MTBF (mean outage 30 s) and
// compares the three recovery designs under degraded-link chaos with RF=2
// evacuated durability. MTBF values are chosen per app to span "never
// crashes" to "crashes several times per run": ALS runs ~12 minutes, BLAST
// ~70 at paper scale. The headline: the journaled master holds 100%
// completion with bounded makespan inflation at every crash rate, while
// the amnesiac one re-executes finished work and loses evacuated files.
func AblationMasterFail(app string, scale float64) ([]SweepRow, error) {
	mkWL, err := workloadBuilder(app, scale)
	if err != nil {
		return nil, err
	}
	mtbfs := []float64{0, 600, 300, 150}
	linkMTBF := 1000.0
	if app == "BLAST" {
		mtbfs = []float64{0, 4000, 2000, 1000}
		linkMTBF = 8000
	}
	return masterFailSweep("masterfail/"+app, mkWL, mtbfs, linkMTBF, func(mtbf float64) masterFailSpec {
		return masterFailSpec{mtbfSec: mtbf, mttrSec: 30}
	})
}
