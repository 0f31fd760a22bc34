package experiments

import (
	"fmt"
	"strings"

	"frieda/internal/exprun"
	"frieda/internal/simrun"
)

// PaperTable1 holds the published Table I numbers (seconds).
var PaperTable1 = map[string][3]float64{
	"ALS":   {1258.80, 789.39, 696.70},
	"BLAST": {61200, 4131.07, 3794.90},
}

// Table1Row is one application's Table I reproduction.
type Table1Row struct {
	App string
	// SequentialSec, PreSec, RealTimeSec are the measured totals.
	SequentialSec, PreSec, RealTimeSec float64
	// PaperSequential, PaperPre, PaperRealTime are the published values.
	PaperSequential, PaperPre, PaperRealTime float64
}

// Speedups returns the measured parallel speedups (pre, real-time).
func (r Table1Row) Speedups() (pre, rt float64) {
	return r.SequentialSec / r.PreSec, r.SequentialSec / r.RealTimeSec
}

// RunTable1 reproduces Table I ("Effect of Data Parallelization") at the
// given workload scale (1.0 = paper size). The six (app, strategy) cells
// are independent seeded simulations and run on the sweep pool; failed
// cells leave zeroed columns and are reported together in the returned
// *exprun.SweepError.
func RunTable1(scale float64) ([]Table1Row, error) {
	apps := []string{"ALS", "BLAST"}
	var cells []exprun.Cell[simrun.Result]
	for _, app := range apps {
		app := app
		mkWL, err := workloadBuilder(app, scale)
		if err != nil {
			return nil, err
		}
		cells = append(cells,
			cell(fmt.Sprintf("table1/%s/sequential/seed=1", app), func() (simrun.Result, error) {
				return Sequential(mkWL())
			}),
			cell(fmt.Sprintf("table1/%s/pre-partition/seed=1", app), func() (simrun.Result, error) {
				return RunStrategy(preRemote(AssignerFor(app)), mkWL(), 4, 1)
			}),
			cell(fmt.Sprintf("table1/%s/real-time/seed=1", app), func() (simrun.Result, error) {
				return RunStrategy(realTime(), mkWL(), 4, 1)
			}),
		)
	}
	results, err := runCells(cells)
	rows := make([]Table1Row, 0, len(apps))
	for i, app := range apps {
		paper := PaperTable1[app]
		rows = append(rows, Table1Row{
			App:             app,
			SequentialSec:   results[3*i].MakespanSec,
			PreSec:          results[3*i+1].MakespanSec,
			RealTimeSec:     results[3*i+2].MakespanSec,
			PaperSequential: paper[0],
			PaperPre:        paper[1],
			PaperRealTime:   paper[2],
		})
	}
	return rows, err
}

// Bar is one stacked bar of Figure 6/7: a strategy's transfer and execution
// components.
type Bar struct {
	Series string
	// TransferSec is the staging phase (pre/no-partition) or the
	// flow-active wall time (real-time, where it overlaps execution).
	TransferSec float64
	// ExecSec is the compute-active wall time.
	ExecSec float64
	// TotalSec is the end-to-end makespan.
	TotalSec float64
	// BytesMoved is the payload volume the master sent.
	BytesMoved float64
}

// workloadBuilder returns a constructor for the named application's
// workload. Each call builds a fresh copy from the fixed seed, so parallel
// sweep cells share no mutable state while still simulating identical
// inputs.
func workloadBuilder(app string, scale float64) (func() simrun.Workload, error) {
	switch app {
	case "ALS":
		return func() simrun.Workload { return ALSWorkload(scale) }, nil
	case "BLAST":
		return func() simrun.Workload { return BLASTWorkload(scale, 1) }, nil
	default:
		return nil, fmt.Errorf("experiments: unknown application %q", app)
	}
}

// RunFig6 reproduces Figure 6 ("Effect of Different Partitioning") for one
// application: pre-partitioned local, pre-partitioned remote, and real-time
// remote.
func RunFig6(app string, scale float64) ([]Bar, error) {
	mkWL, err := workloadBuilder(app, scale)
	if err != nil {
		return nil, err
	}
	assigner := AssignerFor(app)
	configs := []struct {
		name string
		cfg  simrun.Config
	}{
		{"pre-partitioned-local", preLocal(assigner)},
		{"pre-partitioned-remote", preRemote(assigner)},
		{"real-time-remote", realTime()},
	}
	var cells []exprun.Cell[simrun.Result]
	for _, c := range configs {
		c := c
		cells = append(cells, cell(fmt.Sprintf("fig6/%s/%s/seed=1", app, c.name),
			func() (simrun.Result, error) { return RunStrategy(c.cfg, mkWL(), 4, 1) }))
	}
	results, err := runCells(cells)
	bars := make([]Bar, 0, len(configs))
	for i, c := range configs {
		bars = append(bars, barFrom(c.name, results[i]))
	}
	return bars, err
}

// RunFig7 reproduces Figure 7 ("Effect of Data Movement") for one
// application: moving data to the computation (real-time remote pull)
// versus moving computation to the data (execution placed on the nodes
// already holding the partitions).
func RunFig7(app string, scale float64) ([]Bar, error) {
	mkWL, err := workloadBuilder(app, scale)
	if err != nil {
		return nil, err
	}
	assigner := AssignerFor(app)
	results, err := runCells([]exprun.Cell[simrun.Result]{
		cell(fmt.Sprintf("fig7/%s/data-to-computation/seed=1", app),
			func() (simrun.Result, error) { return RunStrategy(realTime(), mkWL(), 4, 1) }),
		cell(fmt.Sprintf("fig7/%s/computation-to-data/seed=1", app),
			func() (simrun.Result, error) { return RunStrategy(preLocal(assigner), mkWL(), 4, 1) }),
	})
	return []Bar{
		barFrom("data-to-computation", results[0]),
		barFrom("computation-to-data", results[1]),
	}, err
}

// barFrom converts a run result into a figure bar.
func barFrom(name string, res simrun.Result) Bar {
	transfer := res.StagingPhaseSec
	if transfer == 0 {
		transfer = res.TransferWallSec
	}
	return Bar{
		Series:      name,
		TransferSec: transfer,
		ExecSec:     res.ExecWallSec,
		TotalSec:    res.MakespanSec,
		BytesMoved:  res.BytesMoved,
	}
}

// RenderTable1 formats Table I with paper-vs-measured columns.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Effect of Data Parallelization (seconds)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %10s %10s\n",
		"App", "Sequential", "Pre-partition", "Real-time", "Pre spd", "RT spd")
	for _, r := range rows {
		preS, rtS := r.Speedups()
		fmt.Fprintf(&b, "%-8s %14.2f %14.2f %14.2f %9.1fx %9.1fx\n",
			r.App, r.SequentialSec, r.PreSec, r.RealTimeSec, preS, rtS)
		fmt.Fprintf(&b, "%-8s %14.2f %14.2f %14.2f %9.1fx %9.1fx\n",
			"  paper", r.PaperSequential, r.PaperPre, r.PaperRealTime,
			r.PaperSequential/r.PaperPre, r.PaperSequential/r.PaperRealTime)
	}
	return b.String()
}

// RenderBars formats a figure's series as a text table.
func RenderBars(title string, bars []Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-26s %12s %12s %12s %14s\n", "Series", "Transfer(s)", "Exec(s)", "Total(s)", "BytesMoved")
	for _, bar := range bars {
		fmt.Fprintf(&b, "%-26s %12.2f %12.2f %12.2f %14.0f\n",
			bar.Series, bar.TransferSec, bar.ExecSec, bar.TotalSec, bar.BytesMoved)
	}
	return b.String()
}
