package experiments

import (
	"fmt"

	"frieda/internal/catalog"
	"frieda/internal/exprun"
	"frieda/internal/simrun"
)

// ctrlPlaneModes are the two control planes the ctrlplane ablation compares:
// "off" prices every scheduling decision at the full slow-path cost (the
// published prototype's per-task master work), "on" enables execution
// templates — the first decision per (worker, task-class, generation) is
// recorded and replayed O(1) until an invalidation event (join, death,
// drain, evacuation, strategy change) bumps the generation.
var ctrlPlaneModes = []string{"off", "on"}

// ChunkWorkload splits every task into k micro-tasks of ComputeSec/k, each
// carrying a proportional slice of the task's input bytes under a fresh file
// name. Total compute and total bytes are preserved — only the task
// granularity changes, which is exactly the axis that stresses the master's
// per-decision cost.
func ChunkWorkload(wl simrun.Workload, k int) simrun.Workload {
	if k <= 1 {
		return wl
	}
	tasks := make([]simrun.TaskSpec, 0, len(wl.Tasks)*k)
	for _, t := range wl.Tasks {
		var total int64
		for _, f := range t.Files {
			total += f.Size
		}
		per := total / int64(k)
		for j := 0; j < k; j++ {
			size := per
			if j == k-1 {
				size = total - per*int64(k-1)
			}
			tasks = append(tasks, simrun.TaskSpec{
				Index:      len(tasks),
				Files:      []catalog.FileMeta{{Name: fmt.Sprintf("t%05d.c%02d", t.Index, j), Size: size}},
				ComputeSec: t.ComputeSec / float64(k),
			})
		}
	}
	return simrun.Workload{Name: wl.Name + "-micro", Tasks: tasks, CommonBytes: wl.CommonBytes}
}

// runCtrlPlane runs the real-time strategy with the priced control plane on
// the paper's 4-worker testbed. Both modes model the same per-decision cost;
// "on" additionally enables template replay, and templates always re-derive
// every hit against the slow path, so a divergence panics the run.
func runCtrlPlane(wl simrun.Workload, templates bool) (simrun.Result, error) {
	cfg := simrun.Config{
		Strategy:  StrictRealTime(),
		CtrlPlane: &simrun.CtrlPlaneConfig{Templates: templates},
	}
	return RunStrategy(cfg, wl, 0, 7)
}

// AblationCtrlPlane sweeps task granularity (micro-tasks per original task)
// with the execution-template control plane off and on. The decisive column
// is ctrl_tasks_per_s — scheduling decisions per second of control-plane
// time: templates replay cached decisions at ~50× the slow-path rate, and
// the advantage compounds as tasks shrink because decision cost grows while
// per-task compute falls.
func AblationCtrlPlane(app string, scale float64) ([]SweepRow, error) {
	mkWL, err := workloadBuilder(app, scale)
	if err != nil {
		return nil, err
	}
	chunks := []int{1, 4, 16}
	var cells []exprun.Cell[simrun.Result]
	for _, k := range chunks {
		for _, mode := range ctrlPlaneModes {
			k, mode := k, mode
			cells = append(cells, cell(
				fmt.Sprintf("ctrlplane/%s/chunk=%d/%s/seed=7", app, k, mode),
				func() (simrun.Result, error) {
					return runCtrlPlane(ChunkWorkload(mkWL(), k), mode == "on")
				}))
		}
	}
	results, err := runCells(cells)
	rows := make([]SweepRow, 0, len(chunks))
	for i, k := range chunks {
		row := SweepRow{Param: float64(k), Series: map[string]float64{}}
		for j, mode := range ctrlPlaneModes {
			res := results[i*len(ctrlPlaneModes)+j]
			prefix := "tmpl_" + mode + "_"
			row.Series[prefix+"makespan_s"] = res.MakespanSec
			row.Series[prefix+"ctrl_s"] = res.CtrlPlaneDecisionSec
			if res.CtrlPlaneDecisionSec > 0 {
				row.Series[prefix+"ctrl_tasks_per_s"] = float64(res.Succeeded) / res.CtrlPlaneDecisionSec
			}
			if mode == "on" {
				row.Series[prefix+"hits"] = float64(res.TemplateHits)
				row.Series[prefix+"misses"] = float64(res.TemplateMisses)
			}
		}
		off := row.Series["tmpl_off_ctrl_s"]
		on := row.Series["tmpl_on_ctrl_s"]
		if on > 0 {
			row.Series["ctrl_speedup"] = off / on
		}
		rows = append(rows, row)
	}
	return rows, err
}
