package experiments

import (
	"fmt"
	"time"

	"frieda/internal/exprun"
)

// DefaultScaleWorkers is the cluster-size sweep the README quotes: the
// paper's evaluation stops at 4 VMs; these sizes exercise the datacenter
// regime the fat-tree topology, cold-link aggregation and same-instant
// batching exist for. The per-event cost staying flat across this sweep
// is the scalability claim BENCH_scale.json records.
var DefaultScaleWorkers = []int{256, 1024, 4096, 16384, 65536}

// ScaleSweep runs the BLAST workload under the real-time strategy at each
// cluster size on a rack/spine fat-tree testbed, reporting virtual makespan,
// bytes moved, total simulator events, real (wall-clock) milliseconds, and
// the derived throughput columns — events/sec plus per-event and per-flow
// wall cost, the trajectory that must stay flat as workers grow.
func ScaleSweep(workerCounts []int, scale float64) ([]SweepRow, error) {
	var cells []exprun.Cell[SweepRow]
	for _, workers := range workerCounts {
		workers := workers
		cells = append(cells, cell(fmt.Sprintf("scale/BLAST/workers=%d/seed=1", workers),
			func() (SweepRow, error) {
				// wall_ms is measured inside the cell so it times only this
				// simulation, not time spent queued behind other cells. It is
				// real wall-clock — the one column family excluded from
				// byte-identity comparisons across pool widths.
				wl := BLASTWorkload(scale, 1)
				start := time.Now()
				tb := NewTreeTestbed(workers, 1)
				r, err := prepare(fmt.Sprintf("%s scale w=%d", wl.Name, workers), tb, realTime(), wl)
				if err != nil {
					return SweepRow{}, err
				}
				// Setup (provisioning O(workers) hosts, links, volumes and
				// worker state) is timed apart from the event loop: per-event
				// cost is a property of the loop, and burying linear setup in
				// it would make the flat-cost trajectory unreadable. No
				// collection is forced in between: setup builds one slab per
				// kind, not objects per VM, so it leaves the loop little
				// garbage to absorb, and a forced full GC cost more than any
				// cycle the loop inherits.
				setupSec := time.Since(start).Seconds()
				runStart := time.Now()
				res, err := r.Run()
				if err != nil {
					return SweepRow{}, err
				}
				runSec := time.Since(runStart).Seconds()
				events := float64(tb.Engine.Fired())
				flows := float64(tb.Cluster.Network().FlowsCompleted)
				row := SweepRow{
					Param: float64(workers),
					Series: map[string]float64{
						"makespan_sec":   res.MakespanSec,
						"bytes_moved_gb": res.BytesMoved / 1e9,
						"sim_events":     events,
						"wall_ms":        (setupSec + runSec) * 1e3,
						"setup_ms":       setupSec * 1e3,
					},
				}
				if runSec > 0 {
					row.Series["events_per_sec"] = events / runSec
				}
				if events > 0 {
					row.Series["us_per_event"] = runSec * 1e6 / events
				}
				if flows > 0 {
					row.Series["us_per_flow"] = runSec * 1e6 / flows
				}
				return row, nil
			}))
	}
	rows, err := runCells(cells)
	// A failed cell leaves a zero SweepRow whose nil Series would confuse
	// the renderer; give it an empty map and its worker-count param.
	for i := range rows {
		if rows[i].Series == nil {
			rows[i].Param = float64(workerCounts[i])
			rows[i].Series = map[string]float64{}
		}
	}
	return rows, err
}
