package experiments

import (
	"fmt"

	"frieda/internal/netsim"
	"frieda/internal/simrun"
)

// netFailSpec is one link-fault regime: mean up-time and outage duration
// per worker (both of a worker's links fail together — a partition of that
// VM), plus the flap-burst count.
type netFailSpec struct {
	mtbfSec float64
	mttrSec float64
	flap    int
}

// netFailModes are the robustness levels the netfail ablation compares:
// "isolate" is the published prototype — a binary detector (K = 1) and no
// transfer retry, so the first partition or broken stream costs the worker
// or the task; "retry" upgrades to a K = 3 suspicion ladder with requeue
// and transfer retry from byte zero at the master; "resume" additionally
// continues interrupted transfers from the delivered offset and re-stages
// from surviving replicas.
var netFailModes = []string{"isolate", "retry", "resume"}

// runNetFail runs the real-time strategy under seeded link faults on the
// paper's 4-worker testbed. Everything is virtual-time and seeded, so equal
// arguments produce bit-identical results.
func runNetFail(wl simrun.Workload, spec netFailSpec, mode string) (simrun.Result, error) {
	cfg := simrun.Config{
		Strategy:  StrictRealTime(),
		Detection: &simrun.DetectionConfig{K: 1},
	}
	switch mode {
	case "isolate":
	case "retry", "resume":
		cfg.Recover = true
		cfg.MaxRetries = 5
		cfg.Detection.K = 3
		cfg.NetFaults = &simrun.NetFaultConfig{Resume: mode == "resume"}
	default:
		return simrun.Result{}, fmt.Errorf("experiments: unknown netfail mode %q", mode)
	}
	// Only worker links fault; the master stays reachable (its failure is
	// the paper's acknowledged single point of failure, out of scope here).
	var inject injector
	if spec.mtbfSec > 0 {
		inject = func(tb *Testbed, _ *simrun.Runner) func() error {
			inj := tb.Cluster.InjectLinkFaults(tb.Workers, netsim.FaultOptions{
				Seed:      11,
				MTBFSec:   spec.mtbfSec,
				MTTRSec:   spec.mttrSec,
				FlapCount: spec.flap,
			})
			return func() error { inj.Stop(); return nil }
		}
	}
	return runCell(fmt.Sprintf("%s netfail mtbf=%.0f %s", wl.Name, spec.mtbfSec, mode), NewTestbed(4, 7), cfg, wl, inject)
}

// netFailSweep runs the (param × mode) grid and assembles one row per
// parameter with completion fraction and makespan per mode (plus the resume
// mode's retry counter, the direct evidence the resilience machinery
// engaged).
func netFailSweep(sweepName string, mkWL func() simrun.Workload, params []float64, specFor func(p float64) netFailSpec) ([]SweepRow, error) {
	grid, err := sweepGrid(sweepName, params, netFailModes, func(p float64, mode string) (simrun.Result, error) {
		return runNetFail(mkWL(), specFor(p), mode)
	})
	rows := make([]SweepRow, 0, len(params))
	for i, p := range params {
		row := SweepRow{Param: p, Series: map[string]float64{}}
		for j, mode := range netFailModes {
			res := grid[i][j]
			row.Series[mode+"_done_pct"] = donePct(res)
			row.Series[mode+"_makespan_s"] = res.MakespanSec
			if mode == "resume" {
				row.Series["resume_retries"] = float64(res.TransferRetries)
				attribCols(row.Series, "resume_", res)
			}
		}
		rows = append(rows, row)
	}
	return rows, err
}

// AblationNetFail sweeps the per-worker link-fault MTBF (mean outage 25 s)
// and compares the three robustness levels. MTBF values are chosen per app
// so the sweep spans "no faults" to "every worker partitioned several
// times": ALS runs ~12 minutes, BLAST ~70 at paper scale.
func AblationNetFail(app string, scale float64) ([]SweepRow, error) {
	mkWL, err := workloadBuilder(app, scale)
	if err != nil {
		return nil, err
	}
	mtbfs := []float64{0, 2000, 1000, 500}
	if app == "BLAST" {
		mtbfs = []float64{0, 16000, 8000, 4000}
	}
	return netFailSweep("netfail/"+app, mkWL, mtbfs, func(mtbf float64) netFailSpec {
		return netFailSpec{mtbfSec: mtbf, mttrSec: 25, flap: 1}
	})
}

// AblationPartition sweeps the partition duration (mean outage MTTR) at a
// fixed fault rate on BLAST: short partitions are exactly where the K = 3
// suspicion ladder avoids the binary detector's false declarations, and
// long ones where resumable transfers stop re-sending the database from
// byte zero.
func AblationPartition(scale float64) ([]SweepRow, error) {
	mkWL := func() simrun.Workload { return BLASTWorkload(scale, 1) }
	return netFailSweep("partition/BLAST", mkWL, []float64{10, 30, 60, 120}, func(mttr float64) netFailSpec {
		return netFailSpec{mtbfSec: 8000, mttrSec: mttr, flap: 1}
	})
}
