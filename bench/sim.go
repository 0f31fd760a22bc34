package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"frieda/internal/cloud"
	"frieda/internal/experiments"
	"frieda/internal/exprun"
	"frieda/internal/simrun"
)

// simSpecs gives each simulator workload its iteration count per ten seconds.
var simSpecs = map[string]int{
	"sim_paper":      34,
	"sim_scale":      11,
	"sim_durability": 7,
}

// Values of sim_durability pinned at the commit that added the benchmark:
// AblationDurability("BLAST", 0.25). The sweep is seeded, so any change in
// them is a change of simulated behaviour.
const (
	durabilityScale    = 0.25
	durabilityMakespan = 9441.601356732213
)

// durabilityLost is the files lost per cell, chaos rate major, RF 1..3 minor.
var durabilityLost = [9]float64{0, 0, 0, 320, 0, 0, 844, 0, 0}

// scaleWorkers is the cluster size of sim_scale, the 65,536 row of
// BENCH_scale.json.
const scaleWorkers = 65536

// cellMark is what the Instrument hook records when a sweep cell is about
// to build its runner: the cell's cluster (events and flows are read from
// it after the sweep) and the host time.
type cellMark struct {
	label   string
	cluster *cloud.Cluster
	at      time.Time
}

// sweepOut is what one sweep produced, apart from its timing.
type sweepOut struct {
	// text is the rendered output, compared byte for byte between
	// iterations and, on sim_paper, with goldens/exp_all.txt.
	text string
	// makespan sums every cell's simulated makespan.
	makespan float64
	// paperErr is the mean |sim − paper| / paper over Table I (sim_paper).
	paperErr float64
	// failedCells counts cells the sweep reported as failed.
	failedCells int
	// bad is a failed workload-specific check.
	bad error
}

// simWorkload is one sim_* workload.
type simWorkload struct {
	name string
	opts options

	// Reference values, loaded by setup.
	golden   string
	scaleRef map[string]float64

	// attach, when set, is called by the hook to attach observers to a cell.
	attach func(label string, cluster *cloud.Cluster, cfg *simrun.Config)
	marks  []cellMark
	// first is the first iteration's signature; every later one must equal it.
	first string

	// Traced iterations.
	spans          *spanLog
	tracedWalls    []float64
	cellWalls      []float64
	cells          int
	events, flows  uint64
	makespan, perr float64
}

func newSimWorkload(name string, opts options) *simWorkload {
	return &simWorkload{name: name, opts: opts, spans: &spanLog{workload: name}}
}

func (w *simWorkload) itersPer10s() int { return simSpecs[w.name] }

// setup loads the reference values, installs the Instrument hook, pins the
// sweep pool to width 1 and runs one warm-up sweep. The committed paper
// inputs carry their own seeds, so -seed changes nothing here: identical
// simulated statistics under any seed is the check.
func (w *simWorkload) setup(ctx context.Context) error {
	switch w.name {
	case "sim_paper":
		data, err := os.ReadFile(filepath.Join(w.opts.refDir, "goldens", "exp_all.txt"))
		if err != nil {
			return err
		}
		w.golden = string(data)
	case "sim_scale":
		data, err := os.ReadFile(filepath.Join(w.opts.refDir, "BENCH_scale.json"))
		if err != nil {
			return err
		}
		var record struct {
			Rows []map[string]float64 `json:"rows"`
		}
		if err := json.Unmarshal(data, &record); err != nil {
			return fmt.Errorf("BENCH_scale.json: %w", err)
		}
		for _, row := range record.Rows {
			if row["workers"] == scaleWorkers {
				w.scaleRef = row
			}
		}
		if w.scaleRef == nil {
			return fmt.Errorf("BENCH_scale.json has no %d-worker row", scaleWorkers)
		}
	}
	experiments.SetParallelism(1)
	experiments.Instrument = func(label string, cluster *cloud.Cluster, cfg *simrun.Config) {
		w.marks = append(w.marks, cellMark{label, cluster, time.Now()})
		if w.attach != nil {
			w.attach(label, cluster, cfg)
		}
	}
	w.first = ""
	if s := w.iterate(ctx, -1, false); s.bad != nil {
		return s.bad
	}
	return nil
}

func (w *simWorkload) iterate(_ context.Context, iter int, traced bool) iterStats {
	goroutines := runtime.NumGoroutine()
	w.marks = w.marks[:0]
	var out sweepOut
	var stats iterStats
	start := time.Now()
	stats.wall, stats.alloc, stats.mallocs = timed(func() { out = w.sweep() })
	end := start.Add(stats.wall)

	var events, flows uint64
	for _, m := range w.marks {
		events += m.cluster.Engine().Fired()
		flows += m.cluster.Network().FlowsCompleted
	}
	stats.ops = int(events)
	stats.attempted = len(w.marks)
	stats.failed = out.failedCells
	stats.bad = out.bad
	signature := fmt.Sprintf("events=%d flows=%d makespan=%v\n%s", events, flows, out.makespan, out.text)
	switch {
	case stats.bad != nil:
	case w.first == "":
		w.first = signature
	case signature != w.first:
		stats.bad = fmt.Errorf("simulated statistics differ between iterations:\n%s\n--- first iteration ---\n%s", signature, w.first)
	}
	if stats.bad == nil {
		stats.bad = settleGoroutines(goroutines)
	}

	if traced {
		sweep := w.spans.open("sweep", "", iter, -1, start)
		for i, m := range w.marks {
			next := end
			if i+1 < len(w.marks) {
				next = w.marks[i+1].at
			}
			w.spans.add("cell", m.label, iter, sweep, m.at, next)
			w.cellWalls = append(w.cellWalls, next.Sub(m.at).Seconds())
		}
		w.spans.finish(sweep, end)
		w.tracedWalls = append(w.tracedWalls, stats.wall.Seconds())
		w.cells, w.events, w.flows = len(w.marks), events, flows
		w.makespan, w.perr = out.makespan, out.paperErr
	}
	for i := range w.marks {
		w.marks[i].cluster = nil // let the cell's cluster go
	}
	return stats
}

// sweep runs the workload's sweep through the functions friedabench calls.
func (w *simWorkload) sweep() sweepOut {
	switch w.name {
	case "sim_paper":
		return w.sweepPaper()
	case "sim_scale":
		return w.sweepScale()
	default:
		return w.sweepDurability()
	}
}

// failedCells splits a sweep's error into the cells it names and any other
// failure.
func failedCells(out *sweepOut, err error) {
	var sweepErr *exprun.SweepError
	switch {
	case err == nil:
	case errors.As(err, &sweepErr):
		out.failedCells += len(sweepErr.Cells)
		out.bad = err
	default:
		out.bad = err
	}
}

// sweepPaper is what `friedabench -exp all -parallel 1` runs and prints;
// the titles are copied from cmd/friedabench.
func (w *simWorkload) sweepPaper() sweepOut {
	var out sweepOut
	var text strings.Builder
	rows, err := experiments.RunTable1(w.opts.scale)
	failedCells(&out, err)
	text.WriteString(experiments.RenderTable1(rows) + "\n")
	var errSum float64
	for _, r := range rows {
		out.makespan += r.SequentialSec + r.PreSec + r.RealTimeSec
		errSum += math.Abs(r.SequentialSec-r.PaperSequential)/r.PaperSequential +
			math.Abs(r.PreSec-r.PaperPre)/r.PaperPre +
			math.Abs(r.RealTimeSec-r.PaperRealTime)/r.PaperRealTime
	}
	if len(rows) > 0 {
		out.paperErr = errSum / float64(3*len(rows))
	}
	figures := []struct {
		run   func(string, float64) ([]experiments.Bar, error)
		app   string
		title string
	}{
		{experiments.RunFig6, "ALS", "Figure 6a: Effect of Different Partitioning — ALS (paper: local < real-time < pre-remote)"},
		{experiments.RunFig6, "BLAST", "Figure 6b: Effect of Different Partitioning — BLAST (paper: near-parity, real-time best)"},
		{experiments.RunFig7, "ALS", "Figure 7a: Effect of Data Movement — ALS (paper: compute-to-data wins decisively)"},
		{experiments.RunFig7, "BLAST", "Figure 7b: Effect of Data Movement — BLAST (paper: placement-insensitive)"},
	}
	for _, f := range figures {
		bars, err := f.run(f.app, w.opts.scale)
		failedCells(&out, err)
		text.WriteString(experiments.RenderBars(f.title, bars) + "\n")
		for _, b := range bars {
			out.makespan += b.TotalSec
		}
	}
	out.text = text.String()
	if out.bad == nil && w.opts.scale == 1 && out.text != w.golden {
		out.bad = fmt.Errorf("rendered tables differ from goldens/exp_all.txt:\n%s", out.text)
	}
	return out
}

// sweepScale is the 65,536-worker cell of `friedabench -exp scale`.
func (w *simWorkload) sweepScale() sweepOut {
	var out sweepOut
	workers := int(scaleWorkers * w.opts.scale)
	if workers < 64 {
		workers = 64
	}
	rows, err := experiments.ScaleSweep([]int{workers}, w.opts.scale)
	failedCells(&out, err)
	if out.bad != nil {
		return out
	}
	series := rows[0].Series
	out.makespan = series["makespan_sec"]
	out.text = fmt.Sprintf("makespan_sec=%v sim_events=%v bytes_moved_gb=%v", series["makespan_sec"], series["sim_events"], series["bytes_moved_gb"])
	if w.opts.scale == 1 {
		for _, col := range []string{"makespan_sec", "sim_events", "bytes_moved_gb"} {
			if series[col] != w.scaleRef[col] {
				out.bad = fmt.Errorf("%s = %v, BENCH_scale.json has %v", col, series[col], w.scaleRef[col])
			}
		}
	}
	return out
}

// sweepDurability is `friedabench -exp ablation-durability` at a quarter of
// the BLAST workload: nine cells, RF 1/2/3 × three chaos rates.
func (w *simWorkload) sweepDurability() sweepOut {
	var out sweepOut
	rows, err := experiments.AblationDurability("BLAST", durabilityScale*w.opts.scale)
	failedCells(&out, err)
	if out.bad != nil {
		return out
	}
	var text strings.Builder
	var lost []float64
	for _, row := range rows {
		for rf := 1; rf <= 3; rf++ {
			key := fmt.Sprintf("rf%d_", rf)
			done, l, span := row.Series[key+"done_pct"], row.Series[key+"lost"], row.Series[key+"makespan_s"]
			fmt.Fprintf(&text, "mtbf=%v rf=%d done=%v lost=%v makespan=%v\n", row.Param, rf, done, l, span)
			out.makespan += span
			lost = append(lost, l)
			if rf >= 2 && (done != 100 || l != 0) {
				out.bad = fmt.Errorf("mtbf %v RF %d: %v%% done, %v files lost; replication must keep every file", row.Param, rf, done, l)
			}
		}
	}
	out.text = text.String()
	if out.bad == nil && w.opts.scale == 1 {
		if out.makespan != durabilityMakespan || len(lost) != len(durabilityLost) {
			out.bad = fmt.Errorf("virtual makespan %v over %d cells, pinned %v over %d", out.makespan, len(lost), float64(durabilityMakespan), len(durabilityLost))
		}
		for i := range lost {
			if out.bad == nil && lost[i] != durabilityLost[i] {
				out.bad = fmt.Errorf("cell %d lost %v files, pinned %v", i, lost[i], durabilityLost[i])
			}
		}
	}
	return out
}
