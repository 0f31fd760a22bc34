package experiments

import (
	"fmt"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/exprun"
	"frieda/internal/netsim"
	"frieda/internal/simrun"
	"frieda/internal/storage"
)

// chaosSpec is one combined-fault regime for the durability ablation. A
// single knob per fault class keeps the sweep one-dimensional; zero disables
// that class.
type chaosSpec struct {
	// workerMTBFSec is the per-VM crash MTBF (cloud lifecycle faults).
	workerMTBFSec float64
	// diskMTBFSec is the per-worker local-disk death MTBF.
	diskMTBFSec float64
	// linkMTBFSec is the per-worker link-degrade MTBF; degraded links
	// corrupt payloads, exercising the checksum/refetch path.
	linkMTBFSec float64
}

// chaosFor derives the combined regime from one sweep parameter: worker
// crashes at the given MTBF, disk deaths slightly less often (distinct
// phase), and link degradation a few times per crash interval.
func chaosFor(mtbfSec float64) chaosSpec {
	if mtbfSec <= 0 {
		return chaosSpec{}
	}
	return chaosSpec{
		workerMTBFSec: mtbfSec,
		diskMTBFSec:   1.5 * mtbfSec,
		linkMTBFSec:   mtbfSec / 2,
	}
}

// withChecksums stamps every file in the workload with its seeded content
// checksum, the end-to-end integrity anchor transfers verify on arrival.
func withChecksums(wl simrun.Workload, seed int64) simrun.Workload {
	for ti := range wl.Tasks {
		for fi := range wl.Tasks[ti].Files {
			f := &wl.Tasks[ti].Files[fi]
			f.Checksum = catalog.SeedChecksum(f.Name, seed)
		}
	}
	return wl
}

// runDurability runs the real-time strategy with the durability layer under
// combined worker, disk and link faults on the paper's 4-worker testbed.
// Dead VMs are replaced (the controller's remediation), so the question the
// experiment answers is purely about data survival: with EvacuateSource the
// worker pool is the only store, and RF is what stands between a crash and
// permanent loss. Everything is virtual-time and seeded, so equal arguments
// produce bit-identical results.
func runDurability(wl simrun.Workload, rf int, spec chaosSpec) (simrun.Result, error) {
	cfg := simrun.Config{
		Strategy:   StrictRealTime(),
		Recover:    true,
		MaxRetries: 5,
		Detection:  &simrun.DetectionConfig{K: 3},
		NetFaults:  &simrun.NetFaultConfig{Resume: true},
		Durability: &simrun.DurabilityConfig{
			RF:                   rf,
			ScanPeriodSec:        30,
			MaxConcurrentRepairs: 2,
			EvacuateSource:       true,
			CorruptionRate:       0.25,
			Seed:                 17,
		},
	}
	// The master is the paper's acknowledged single point of failure; its
	// links and disk stay healthy so the sweep isolates worker-side loss.
	inject := func(tb *Testbed, r *simrun.Runner) func() error {
		var stops []func()
		if spec.linkMTBFSec > 0 {
			// Degrade-mode faults: links stay up at reduced capacity, which is
			// what makes in-flight payloads corruptible.
			stops = append(stops, tb.Cluster.InjectLinkFaults(tb.Workers, netsim.FaultOptions{
				Seed:          11,
				MTBFSec:       spec.linkMTBFSec,
				MTTRSec:       25,
				DegradeFactor: 0.4,
			}).Stop)
		}
		diskSeed := int64(5)
		injectDisks := func(targets ...*cloud.VM) {
			if spec.diskMTBFSec <= 0 {
				return
			}
			diskSeed++
			stops = append(stops, tb.Cluster.InjectDiskFaults(targets, storage.DiskFaultOptions{
				Seed:          diskSeed,
				DeathMTBFSec:  spec.diskMTBFSec,
				ReadErrorRate: 0.005,
			}).Stop)
		}
		injectDisks(tb.Workers...)
		// Replace dead workers so the pool keeps repair destinations.
		stopReplacing := replaceDead(tb, r, func(vm *cloud.VM) { injectDisks(vm) })
		return func() error {
			for _, stop := range stops {
				stop()
			}
			return stopReplacing()
		}
	}
	return runCell(fmt.Sprintf("%s durability rf=%d mtbf=%.0f", wl.Name, rf, spec.workerMTBFSec),
		paperTestbed(cloud.Options{Seed: 7, FailureMTBFSec: spec.workerMTBFSec}, 4), cfg, wl, inject)
}

// durabilityCells builds the (mtbf × RF 1..3) grid of independent seeded
// simulations; durabilityRows assembles the matching sweep rows with
// completion fraction, makespan, permanently lost files and repair traffic
// per factor.
const durabilityRFs = 3

func durabilityCells(app string, mkWL func() simrun.Workload, mtbfs []float64) []exprun.Cell[simrun.Result] {
	var cells []exprun.Cell[simrun.Result]
	for _, mtbf := range mtbfs {
		spec := chaosFor(mtbf)
		for rf := 1; rf <= durabilityRFs; rf++ {
			spec, rf, mtbf := spec, rf, mtbf
			cells = append(cells, cell(
				fmt.Sprintf("durability/%s/mtbf=%g/rf=%d/seed=7", app, mtbf, rf),
				func() (simrun.Result, error) { return runDurability(mkWL(), rf, spec) }))
		}
	}
	return cells
}

func durabilityRows(mtbfs []float64, results []simrun.Result) []SweepRow {
	rows := make([]SweepRow, 0, len(mtbfs))
	for i, mtbf := range mtbfs {
		row := SweepRow{Param: mtbf, Series: map[string]float64{}}
		for rf := 1; rf <= durabilityRFs; rf++ {
			res := results[i*durabilityRFs+rf-1]
			key := fmt.Sprintf("rf%d_", rf)
			row.Series[key+"done_pct"] = donePct(res)
			row.Series[key+"makespan_s"] = res.MakespanSec
			row.Series[key+"lost"] = float64(res.FilesLost)
			if rf == durabilityRFs {
				row.Series["rf3_repair_mb"] = res.RepairBytes / 1e6
				attribCols(row.Series, "rf3_", res)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// AblationDurability sweeps the combined fault rate (worker-crash MTBF; disk
// and link faults scale with it, see chaosFor) against replication factor on
// one application. The headline contrast: with source evacuation, RF=1 loses
// files permanently at rates where RF>=2 plus background repair keeps every
// file available — at the cost of repair traffic contending with foreground
// transfers.
func AblationDurability(app string, scale float64) ([]SweepRow, error) {
	base, err := workloadBuilder(app, scale)
	if err != nil {
		return nil, err
	}
	mkWL := func() simrun.Workload { return withChecksums(base(), 2012) }
	// MTBFs chosen per app so the sweep spans "no faults" to "every worker
	// crashes several times per run" (ALS runs ~12 minutes at paper scale,
	// BLAST ~70).
	mtbfs := []float64{0, 1000, 500}
	if app == "BLAST" {
		mtbfs = []float64{0, 8000, 4000}
	}
	results, err := runCells(durabilityCells(app, mkWL, mtbfs))
	return durabilityRows(mtbfs, results), err
}
