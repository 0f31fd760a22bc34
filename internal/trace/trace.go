// Package trace renders execution timelines from simulation results: a
// per-worker Gantt chart in text and phase aggregates — the observability
// surface a FRIEDA operator uses to understand where a strategy spends its
// time.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"frieda/internal/obs"
	"frieda/internal/simrun"
)

// WorkerLane aggregates one worker's task executions.
type WorkerLane struct {
	Worker string
	Tasks  int
	// Failed counts the worker's terminal failed attempts.
	Failed int
	// BusySec is the summed task durations.
	BusySec float64
	// FirstStart and LastEnd bound the lane.
	FirstStart, LastEnd float64
	// MakespanSec is the whole run's duration, the utilisation denominator.
	MakespanSec float64
}

// Lanes computes per-worker aggregates from completions, sorted by worker.
// makespanSec is the run's total duration; it denominates Utilisation so a
// worker idle before its first or after its last task reads as idle.
func Lanes(completions []simrun.Completion, makespanSec float64) []WorkerLane {
	byWorker := map[string]*WorkerLane{}
	for _, c := range completions {
		l := byWorker[c.Worker]
		if l == nil {
			l = &WorkerLane{Worker: c.Worker, FirstStart: float64(c.Start), MakespanSec: makespanSec}
			byWorker[c.Worker] = l
		}
		if !c.OK {
			l.Failed++
			continue
		}
		l.Tasks++
		l.BusySec += float64(c.End - c.Start)
		if float64(c.Start) < l.FirstStart {
			l.FirstStart = float64(c.Start)
		}
		if float64(c.End) > l.LastEnd {
			l.LastEnd = float64(c.End)
		}
	}
	out := make([]WorkerLane, 0, len(byWorker))
	for _, l := range byWorker {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// Utilisation returns busy time over the run's makespan — the fraction of
// the whole run this worker spent computing. Lanes built without a makespan
// fall back to the lane's own span (0 for an empty lane).
func (l WorkerLane) Utilisation() float64 {
	span := l.MakespanSec
	if span <= 0 {
		span = l.LastEnd - l.FirstStart
	}
	if span <= 0 {
		return 0
	}
	return l.BusySec / span
}

// Gantt renders a fixed-width text timeline, one row per worker: '#' for
// busy buckets, 's' for buckets busy with a speculative clone, '.' for
// idle, 'x' marking where a failed or interrupted attempt went terminal,
// and 'c' where a speculative race's losing attempt was cancelled — fault
// runs show where work was lost or discarded instead of silently dropping
// those rows. width is the number of buckets (default 60).
func Gantt(res simrun.Result, width int) string {
	if width <= 0 {
		width = 60
	}
	if res.MakespanSec <= 0 || len(res.Completions) == 0 {
		return "(empty run)\n"
	}
	type span struct {
		start, end float64
		spec       bool
	}
	byWorker := map[string][]span{}
	failsBy := map[string][]float64{}
	cancelBy := map[string][]float64{}
	for _, c := range res.Completions {
		if c.Cancelled {
			cancelBy[c.Worker] = append(cancelBy[c.Worker], float64(c.End))
			continue
		}
		if !c.OK {
			failsBy[c.Worker] = append(failsBy[c.Worker], float64(c.End))
			continue
		}
		byWorker[c.Worker] = append(byWorker[c.Worker], span{float64(c.Start), float64(c.End), c.Speculative})
	}
	seen := map[string]bool{}
	var workers []string
	for w := range byWorker {
		seen[w] = true
		workers = append(workers, w)
	}
	for _, extra := range []map[string][]float64{failsBy, cancelBy} {
		for w := range extra {
			if !seen[w] {
				seen[w] = true
				workers = append(workers, w)
			}
		}
	}
	sort.Strings(workers)

	var b strings.Builder
	bucket := res.MakespanSec / float64(width)
	fmt.Fprintf(&b, "timeline: %.1fs total, one column = %.2fs\n", res.MakespanSec, bucket)
	for _, w := range workers {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range byWorker[w] {
			lo := int(s.start / bucket)
			hi := int(s.end / bucket)
			if hi >= width {
				hi = width - 1
			}
			glyph := byte('#')
			if s.spec {
				glyph = 's'
			}
			for i := lo; i <= hi; i++ {
				row[i] = glyph
			}
		}
		for _, at := range failsBy[w] {
			i := int(at / bucket)
			if i >= width {
				i = width - 1
			}
			row[i] = 'x'
		}
		for _, at := range cancelBy[w] {
			i := int(at / bucket)
			if i >= width {
				i = width - 1
			}
			row[i] = 'c'
		}
		label := w
		if label == "" {
			label = "(unrun)"
		}
		note := fmt.Sprintf("%d tasks", len(byWorker[w]))
		if nf := len(failsBy[w]); nf > 0 {
			note = fmt.Sprintf("%d ok, %d failed", len(byWorker[w]), nf)
		}
		if nc := len(cancelBy[w]); nc > 0 {
			note += fmt.Sprintf(", %d cancelled", nc)
		}
		fmt.Fprintf(&b, "%-8s |%s| %s\n", label, row, note)
	}
	return b.String()
}

// Summary renders per-worker utilisation aggregates. Utilisation is busy
// time over the run's makespan, so idle tails count against a worker.
func Summary(res simrun.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %10s %10s %8s\n", "worker", "tasks", "failed", "busy(s)", "span(s)", "util")
	for _, l := range Lanes(res.Completions, res.MakespanSec) {
		worker := l.Worker
		if worker == "" {
			worker = "(unrun)"
		}
		fmt.Fprintf(&b, "%-10s %8d %8d %10.1f %10.1f %7.1f%%\n",
			worker, l.Tasks, l.Failed, l.BusySec, l.LastEnd-l.FirstStart, 100*l.Utilisation())
	}
	fmt.Fprintf(&b, "makespan %.1fs, transfer wall %.1fs, exec wall %.1fs, %.0f bytes moved\n",
		res.MakespanSec, res.TransferWallSec, res.ExecWallSec, res.BytesMoved)
	// The durability line appears only when the run had durability activity,
	// so legacy runs render unchanged.
	if res.FilesLost > 0 || res.CorruptionsDetected > 0 || res.RepairBytes > 0 {
		fmt.Fprintf(&b, "durability: %d files lost, %d corruptions detected, %d repairs (%.0f repair bytes)\n",
			res.FilesLost, res.CorruptionsDetected, res.RepairsCompleted, res.RepairBytes)
	}
	// Likewise the gray-failure line: only runs that suspected or mitigated
	// anything show it.
	if res.StragglersSuspected > 0 || res.SpeculativeLaunched > 0 || res.HedgedTransfers > 0 {
		fmt.Fprintf(&b, "gray: %d slow-suspected, %d speculative (%d won, %.1fs wasted), %d hedged transfers\n",
			res.StragglersSuspected, res.SpeculativeLaunched, res.SpeculativeWon,
			res.SpeculativeWastedSec, res.HedgedTransfers)
	}
	return b.String()
}

// SpanSummary aggregates a run's recorded spans into a phase breakdown: per
// worker, real busy seconds from task spans and staging seconds from
// transfer spans, plus counts of the run's instant events. Any metrics
// registries passed along contribute one bucket-interpolated percentile
// line per populated histogram (task_sec, transfer_sec, ...). Returns a
// note when tracing was disabled.
func SpanSummary(tr *obs.Tracer, ms ...*obs.Metrics) string {
	if !tr.Enabled() || tr.Len() == 0 {
		return "(no trace recorded)\n"
	}
	type agg struct {
		tasks, xfers     int
		taskSec, xferSec float64
		taskIvs, xferIvs [][2]float64
		attempts         int
		repairs          int
		repairSec        float64
		specs            int
		specSec          float64
	}
	byWorker := map[string]*agg{}
	worker := func(track string) string {
		if i := strings.IndexByte(track, '/'); i >= 0 {
			return track[:i]
		}
		return track
	}
	instants := map[string]int{}
	for _, e := range tr.Events() {
		switch e.Phase {
		case obs.PhaseSpan:
			w := worker(e.Track)
			a := byWorker[w]
			if a == nil {
				a = &agg{}
				byWorker[w] = a
			}
			iv := [2]float64{float64(e.Ts), float64(e.End())}
			switch e.Cat {
			case "task":
				a.tasks++
				a.taskSec += float64(e.Dur)
				a.taskIvs = append(a.taskIvs, iv)
			case "transfer":
				a.xfers++
				a.xferSec += float64(e.Dur)
				a.xferIvs = append(a.xferIvs, iv)
			case "attempt":
				a.attempts++
			case "repair":
				a.repairs++
				a.repairSec += float64(e.Dur)
			case "spec":
				// Speculative clone executions: real compute, so their
				// intervals count toward the compute wall too.
				a.specs++
				a.specSec += float64(e.Dur)
				a.taskIvs = append(a.taskIvs, iv)
			}
		case obs.PhaseInstant:
			instants[e.Cat+"/"+e.Name]++
		}
	}
	workers := make([]string, 0, len(byWorker))
	var taskIvs, xferIvs [][2]float64
	for w, a := range byWorker {
		workers = append(workers, w)
		taskIvs = append(taskIvs, a.taskIvs...)
		xferIvs = append(xferIvs, a.xferIvs...)
	}
	sort.Strings(workers)

	// The repair and speculation columns appear only when the run recorded
	// spans of that kind, so legacy traces render unchanged.
	repairs, specs := false, false
	for _, a := range byWorker {
		if a.repairs > 0 {
			repairs = true
		}
		if a.specs > 0 {
			specs = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "span summary for %s (%d events)\n", tr.Name(), tr.Len())
	header := fmt.Sprintf("%-10s %6s %10s %6s %9s %9s", "worker", "tasks", "task(s)", "xfers", "xfer(s)", "attempts")
	if repairs {
		header += fmt.Sprintf(" %8s %9s", "repairs", "repair(s)")
	}
	if specs {
		header += fmt.Sprintf(" %6s %9s", "spec", "spec(s)")
	}
	b.WriteString(header + "\n")
	for _, w := range workers {
		a := byWorker[w]
		line := fmt.Sprintf("%-10s %6d %10.1f %6d %9.1f %9d",
			w, a.tasks, a.taskSec, a.xfers, a.xferSec, a.attempts)
		if repairs {
			line += fmt.Sprintf(" %8d %9.1f", a.repairs, a.repairSec)
		}
		if specs {
			line += fmt.Sprintf(" %6d %9.1f", a.specs, a.specSec)
		}
		b.WriteString(line + "\n")
	}
	taskWall := unionSec(taskIvs)
	xferWall := unionSec(xferIvs)
	overlap := taskWall + xferWall - unionSec(append(taskIvs, xferIvs...))
	fmt.Fprintf(&b, "compute wall %.1fs, transfer wall %.1fs, overlap %.1fs\n", taskWall, xferWall, overlap)
	if len(instants) > 0 {
		keys := make([]string, 0, len(instants))
		for k := range instants {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s %d", k, instants[k])
		}
		fmt.Fprintf(&b, "instants: %s\n", strings.Join(parts, ", "))
	}
	for _, m := range ms {
		for _, h := range m.Histograms() {
			if h.Count() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s: n=%d p50 %.3fs  p95 %.3fs  p99 %.3fs\n",
				h.HistName(), h.Count(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
	return b.String()
}

// unionSec returns the total length covered by the union of the intervals.
func unionSec(ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]float64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	total := 0.0
	lo, hi := sorted[0][0], sorted[0][1]
	for _, iv := range sorted[1:] {
		if iv[0] > hi {
			total += hi - lo
			lo, hi = iv[0], iv[1]
			continue
		}
		if iv[1] > hi {
			hi = iv[1]
		}
	}
	return total + (hi - lo)
}
