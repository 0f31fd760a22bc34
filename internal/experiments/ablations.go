package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/exprun"
	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/simrun"
)

// RunStrategyBW is RunStrategy with a custom provisioned bandwidth (Mbps),
// used by the bandwidth-sweep ablation.
func RunStrategyBW(cfg simrun.Config, wl simrun.Workload, workers int, seed int64, mbps float64) (simrun.Result, error) {
	if workers <= 0 {
		workers = 4
	}
	inst := cloud.C1XLarge
	inst.UpBps = netsim.Mbps(mbps)
	inst.DownBps = netsim.Mbps(mbps)
	tb, err := newTestbed(cloud.Options{Seed: seed}, inst, workers)
	if err != nil {
		return simrun.Result{}, err
	}
	return runCell(fmt.Sprintf("%s %s bw=%.0fMbps", wl.Name, cfg.Strategy.String(), mbps), tb, cfg, wl, nil)
}

// SweepRow is one point of an ablation sweep.
type SweepRow struct {
	Param  float64
	Series map[string]float64
}

// AblationPrefetch sweeps the real-time prefetch window on the ALS
// workload: 1 is the paper's strict request-one-get-one; larger windows
// pipeline the next transfer behind the current computation.
func AblationPrefetch(scale float64) ([]SweepRow, error) {
	windows := []int{1, 2, 4, 8}
	var cells []exprun.Cell[simrun.Result]
	for _, prefetch := range windows {
		prefetch := prefetch
		cells = append(cells, cell(fmt.Sprintf("prefetch/ALS/window=%d/seed=1", prefetch),
			func() (simrun.Result, error) {
				strat := StrictRealTime()
				strat.Prefetch = prefetch
				return RunStrategy(simrun.Config{Strategy: strat}, ALSWorkload(scale), 4, 1)
			}))
	}
	results, err := runCells(cells)
	rows := make([]SweepRow, 0, len(windows))
	for i, prefetch := range windows {
		rows = append(rows, SweepRow{
			Param:  float64(prefetch),
			Series: map[string]float64{"makespan_sec": results[i].MakespanSec},
		})
	}
	return rows, err
}

// AblationBandwidth sweeps the provisioned link rate on the ALS workload
// for both remote strategies, exposing the transfer-bound to compute-bound
// crossover: at low bandwidth real-time's overlap dominates; at high
// bandwidth the strategies converge to the compute bound.
func AblationBandwidth(scale float64) ([]SweepRow, error) {
	rates := []float64{25, 50, 100, 250, 500, 1000}
	var cells []exprun.Cell[simrun.Result]
	for _, mbps := range rates {
		mbps := mbps
		cells = append(cells,
			cell(fmt.Sprintf("bandwidth/ALS/pre-partition/mbps=%g/seed=1", mbps),
				func() (simrun.Result, error) {
					return RunStrategyBW(preRemote("round-robin"), ALSWorkload(scale), 4, 1, mbps)
				}),
			cell(fmt.Sprintf("bandwidth/ALS/real-time/mbps=%g/seed=1", mbps),
				func() (simrun.Result, error) {
					return RunStrategyBW(realTime(), ALSWorkload(scale), 4, 1, mbps)
				}),
		)
	}
	results, err := runCells(cells)
	rows := make([]SweepRow, 0, len(rates))
	for i, mbps := range rates {
		rows = append(rows, SweepRow{
			Param: mbps,
			Series: map[string]float64{
				"pre-partition_sec": results[2*i].MakespanSec,
				"real-time_sec":     results[2*i+1].MakespanSec,
			},
		})
	}
	return rows, err
}

// AblationVariance sweeps per-task cost variability on a BLAST-like
// workload and reports the pre-partitioning makespan penalty over
// real-time — the quantitative version of the paper's load-balancing
// argument.
func AblationVariance(scale float64) ([]SweepRow, error) {
	amps := []float64{0, 0.05, 0.1, 0.2, 0.4}
	var cells []exprun.Cell[simrun.Result]
	for _, amp := range amps {
		amp := amp
		cells = append(cells,
			cell(fmt.Sprintf("variance/BLAST-var/pre-partition/amp=%g/seed=1", amp),
				func() (simrun.Result, error) {
					return RunStrategy(preRemote("blocked"), driftWorkload(scale, amp, 1), 4, 1)
				}),
			cell(fmt.Sprintf("variance/BLAST-var/real-time/amp=%g/seed=1", amp),
				func() (simrun.Result, error) {
					return RunStrategy(realTime(), driftWorkload(scale, amp, 1), 4, 1)
				}),
		)
	}
	results, err := runCells(cells)
	rows := make([]SweepRow, 0, len(amps))
	for i, amp := range amps {
		pre, rt := results[2*i], results[2*i+1]
		penalty := 0.0
		if rt.MakespanSec > 0 {
			penalty = 100 * (pre.MakespanSec/rt.MakespanSec - 1)
		}
		rows = append(rows, SweepRow{
			Param: amp,
			Series: map[string]float64{
				"pre-partition_sec": pre.MakespanSec,
				"real-time_sec":     rt.MakespanSec,
				"penalty_pct":       penalty,
			},
		})
	}
	return rows, err
}

// driftWorkload is the BLAST cost model with an explicit drift amplitude.
func driftWorkload(scale, amp float64, seed int64) simrun.Workload {
	n := scaled(BLASTQueries, scale)
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]simrun.TaskSpec, n)
	for i := range tasks {
		drift := 1 + amp*math.Sin(2*math.Pi*float64(i)/float64(n))
		noise := 1 + rng.NormFloat64()*BLASTNoiseSigma
		if noise < 0.2 {
			noise = 0.2
		}
		tasks[i] = simrun.TaskSpec{
			Index:      i,
			Files:      []catalog.FileMeta{{Name: fmt.Sprintf("q%06d.fa", i), Size: BLASTQueryBytes}},
			ComputeSec: BLASTMeanSec * drift * noise,
		}
	}
	return simrun.Workload{Name: "BLAST-var", Tasks: tasks, CommonBytes: BLASTDBBytes}
}

// AblationFailures sweeps the VM failure rate on a BLAST-like workload and
// compares three robustness levels: the published isolation-only behaviour,
// the future-work recovery extension (requeue lost work), and recovery plus
// elastic replacement (the controller provisions a fresh VM for each dead
// one, as its membership machinery allows). Reported: completion fraction
// and makespan.
func AblationFailures(scale float64) ([]SweepRow, error) {
	mtbfs := []float64{0, 8000, 4000, 2000}
	modes := []string{"isolate", "recover", "replace"}
	var cells []exprun.Cell[simrun.Result]
	for _, mtbf := range mtbfs {
		for _, mode := range modes {
			mtbf, mode := mtbf, mode
			cells = append(cells, cell(fmt.Sprintf("failures/BLAST/mtbf=%g/%s/seed=7", mtbf, mode),
				func() (simrun.Result, error) {
					return runWithFailures(BLASTWorkload(scale, 1), mtbf, mode)
				}))
		}
	}
	results, err := runCells(cells)
	rows := make([]SweepRow, 0, len(mtbfs))
	for i, mtbf := range mtbfs {
		row := SweepRow{Param: mtbf, Series: map[string]float64{}}
		for j, mode := range modes {
			res := results[i*len(modes)+j]
			row.Series[mode+"_done_pct"] = donePct(res)
			row.Series[mode+"_makespan_s"] = res.MakespanSec
		}
		rows = append(rows, row)
	}
	return rows, err
}

// donePct is the completed-task percentage of a run, 0 for the zero Result
// a failed sweep cell leaves behind.
func donePct(res simrun.Result) float64 {
	total := float64(res.Succeeded + res.Abandoned)
	if total == 0 {
		return 0
	}
	return 100 * float64(res.Succeeded) / total
}

// runWithFailures runs real-time BLAST under exponential VM failures.
// mode "isolate" matches the paper; "recover" requeues lost work;
// "replace" additionally provisions a replacement VM per failure.
func runWithFailures(wl simrun.Workload, mtbfSec float64, mode string) (simrun.Result, error) {
	cfg := simrun.Config{
		Strategy:   StrictRealTime(),
		Recover:    mode != "isolate",
		MaxRetries: 5,
	}
	// Only workers matter for failure handling; the source VM's failure
	// clock has no registered worker (the paper's acknowledged single point
	// of failure is out of scope for this sweep).
	var inject injector
	if mode == "replace" {
		inject = func(tb *Testbed, r *simrun.Runner) func() error { return replaceDead(tb, r, nil) }
	}
	return runCell(fmt.Sprintf("%s failures mtbf=%.0f %s", wl.Name, mtbfSec, mode),
		paperTestbed(cloud.Options{Seed: 7, FailureMTBFSec: mtbfSec}, 4), cfg, wl, inject)
}

// AblationElastic measures mid-run scale-out on the BLAST workload (the
// compute-bound case where extra workers actually help; ALS is bound by the
// source uplink, which elasticity cannot widen): workers added at one
// quarter of the baseline makespan.
func AblationElastic(scale float64) ([]SweepRow, error) {
	// The baseline runs first on its own: the scale-out cells' add time
	// depends on its makespan, so only the two elastic cells fan out.
	base, err := RunStrategy(realTime(), BLASTWorkload(scale, 1), 2, 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: elastic baseline: %w", err)
	}
	addCounts := []int{1, 2}
	var cells []exprun.Cell[simrun.Result]
	for _, adds := range addCounts {
		adds := adds
		cells = append(cells, cell(fmt.Sprintf("elastic/BLAST/adds=%d/seed=1", adds),
			func() (simrun.Result, error) {
				return runElastic(BLASTWorkload(scale, 1), 2, adds, base.MakespanSec/4)
			}))
	}
	results, err := runCells(cells)
	rows := []SweepRow{{Param: 0, Series: map[string]float64{"makespan_sec": base.MakespanSec}}}
	for i, adds := range addCounts {
		rows = append(rows, SweepRow{
			Param:  float64(adds),
			Series: map[string]float64{"makespan_sec": results[i].MakespanSec},
		})
	}
	return rows, err
}

// runElastic starts with `initial` workers and adds `adds` more at addAt.
func runElastic(wl simrun.Workload, initial, adds int, addAt float64) (simrun.Result, error) {
	tb := NewTestbed(initial+adds, 1)
	late := tb.Workers[initial:]
	tb.Workers = tb.Workers[:initial]
	return runCell(fmt.Sprintf("%s elastic %d+%d", wl.Name, initial, adds), tb, realTime(), wl,
		func(tb *Testbed, r *simrun.Runner) func() error {
			for _, vm := range late {
				vm := vm
				tb.Engine.At(sim.Time(addAt), func() { r.AddWorker(vm) })
			}
			return nil
		})
}

// RenderSweep formats sweep rows with a parameter column and one column per
// series (sorted by name).
func RenderSweep(title, param string, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(rows) == 0 {
		return b.String()
	}
	names := make([]string, 0, len(rows[0].Series))
	for name := range rows[0].Series {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-14s", param)
	for _, n := range names {
		fmt.Fprintf(&b, " %20s", n)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14g", r.Param)
		for _, n := range names {
			fmt.Fprintf(&b, " %20.2f", r.Series[n])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
