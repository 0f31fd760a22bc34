// Command friedabench regenerates every table and figure of the FRIEDA
// paper's evaluation (Section IV) on the simulated testbed, plus the
// ablations this repository adds. Output is text tables with the published
// numbers alongside the measured ones.
//
//	friedabench -exp all            # Table I, Fig 6a/6b, Fig 7a/7b
//	friedabench -exp table1
//	friedabench -exp fig6a -gantt   # plus a worker timeline
//	friedabench -exp ablations      # prefetch / bandwidth / variance /
//	                                # failures / elasticity / netfail sweeps
//	friedabench -exp netfail        # link faults: isolate vs retry vs resume
//	friedabench -exp durability     # chaos: RF sweep under link+disk+worker faults
//	friedabench -exp masterfail     # master crashes: crashfree vs journal vs amnesia
//	friedabench -exp ctrlplane      # execution templates vs per-task decision cost
//	friedabench -exp scale          # BLAST at 256..65,536 workers on a fat-tree (~1 s)
//	friedabench -exp list           # every experiment with a one-line description
//
// -scale shrinks the workloads for quick runs (1.0 = paper size; the full
// sweep takes well under a second of real time — virtual time does the
// waiting).
//
// Observability: -trace writes a Chrome trace-event JSON covering every run
// of the selected experiments (open in Perfetto or chrome://tracing; one
// process per run, one track per worker core / transfer lane / link), and
// -metrics writes a virtual-time-sampled CSV of queue depth, goodput, slot
// occupancy and friends plus task/transfer histograms. -attrib prints a
// critical-path attribution report per run — a blame table binning every
// second of the makespan into compute / network / queue-wait / detection /
// retry / repair / straggler-inflation / speculation categories, exact
// latency percentiles, and the longest critical-path segments — and, with
// -trace, adds a critical-path highlight lane to the Chrome export;
// -attribdiff 1,2 diffs two runs' blame tables. All are byte-deterministic
// for a fixed seed and change no experiment results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"frieda/internal/cloud"
	"frieda/internal/experiments"
	"frieda/internal/exprun"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/simrun"
	"frieda/internal/trace"
)

// collector gathers per-run tracers, metrics and attribution recorders
// installed through the experiments.Instrument hook, for export after all
// experiments finish.
type collector struct {
	traceOut, metricsOut string
	periodSec            float64
	attribOn             bool
	attribDiff           string
	seq                  int
	tracers              []*obs.Tracer
	metrics              []*obs.Metrics
	last                 *obs.Tracer
	lastMetrics          *obs.Metrics
	labels               []string
	recorders            []*attrib.Recorder
}

// maxUtilLinks caps how many per-link utilisation gauges a metered run
// registers, so scale-sweep runs with thousands of VMs keep a sane CSV.
const maxUtilLinks = 16

// install registers the Instrument hook when -trace, -metrics or -attrib
// was given.
func (c *collector) install() {
	if c.traceOut == "" && c.metricsOut == "" && !c.attribOn {
		return
	}
	experiments.Instrument = func(label string, cluster *cloud.Cluster, cfg *simrun.Config) {
		c.seq++
		name := fmt.Sprintf("%03d %s", c.seq, label)
		if c.attribOn {
			rec := attrib.NewRecorder(cluster.Engine())
			cfg.Attrib = rec
			c.labels = append(c.labels, name)
			c.recorders = append(c.recorders, rec)
		}
		if c.traceOut != "" {
			tr := obs.NewTracer(cluster.Engine(), name)
			cfg.Tracer = tr
			cluster.Network().SetTracer(tr)
			c.tracers = append(c.tracers, tr)
			c.last = tr
		}
		if c.metricsOut != "" {
			m := obs.NewMetrics(cluster.Engine(), name, c.periodSec)
			cfg.Metrics = m
			for i, vm := range cluster.VMs() {
				if i >= maxUtilLinks {
					break
				}
				l := vm.Host().Up()
				m.Gauge("util:"+l.Name(), func() float64 {
					if l.Capacity() <= 0 {
						return 0
					}
					return l.UtilisedBps() / l.Capacity()
				})
			}
			c.metrics = append(c.metrics, m)
			c.lastMetrics = m
		}
	}
}

// export prints the attribution reports and writes the collected trace and
// metrics files. Attribution renders before the Chrome export so the
// critical-path highlight lanes land in the trace document.
func (c *collector) export() error {
	if c.attribOn {
		for i, rec := range c.recorders {
			rep := rec.Report()
			fmt.Printf("== %s ==\n", c.labels[i])
			fmt.Print(trace.AttributionReport(rep))
			fmt.Println()
			if c.traceOut != "" && i < len(c.tracers) {
				trace.EmitCriticalPath(c.tracers[i], rep)
			}
		}
		if c.attribDiff != "" {
			if err := c.printDiff(); err != nil {
				return err
			}
		}
	}
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, c.tracers...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		total := 0
		for _, tr := range c.tracers {
			total += tr.Len()
		}
		fmt.Printf("wrote %s: %d runs, %d events (open in https://ui.perfetto.dev)\n",
			c.traceOut, len(c.tracers), total)
	}
	if c.metricsOut != "" {
		f, err := os.Create(c.metricsOut)
		if err != nil {
			return err
		}
		if err := obs.WriteMetricsCSV(f, c.metrics...); err != nil {
			f.Close()
			return err
		}
		if _, err := fmt.Fprintln(f, "# histograms"); err != nil {
			f.Close()
			return err
		}
		if err := obs.WriteHistogramsCSV(f, c.metrics...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d runs\n", c.metricsOut, len(c.metrics))
	}
	return nil
}

// printDiff renders the -attribdiff differential between two collected
// runs, addressed by their 1-based sequence numbers as printed in the
// report headers.
func (c *collector) printDiff() error {
	parts := strings.Split(c.attribDiff, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-attribdiff wants two run numbers, e.g. 1,2 (got %q)", c.attribDiff)
	}
	idx := make([]int, 2)
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 || n > len(c.recorders) {
			return fmt.Errorf("-attribdiff: run %q out of range 1..%d", p, len(c.recorders))
		}
		idx[i] = n - 1
	}
	fmt.Print(trace.AttributionDiff(
		c.labels[idx[0]], c.recorders[idx[0]].Report(),
		c.labels[idx[1]], c.recorders[idx[1]].Report()))
	fmt.Println()
	return nil
}

func main() {
	os.Exit(run())
}

// run carries main's body so the profile-writing defers execute before the
// process exits (os.Exit in main would skip them).
func run() int {
	fs := flag.NewFlagSet("friedabench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment to run (see -exp list)")
	scale := fs.Float64("scale", 1.0, "workload scale (1.0 = paper size)")
	gantt := fs.Bool("gantt", false, "print a worker timeline for figure experiments")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of every run to this file (Perfetto-loadable)")
	metricsOut := fs.String("metrics", "", "write virtual-time-sampled metrics CSV of every run to this file")
	metricsPeriod := fs.Float64("metrics-period", 10, "metrics sampling period in virtual seconds")
	attribOn := fs.Bool("attrib", false, "print a critical-path attribution report (blame table + top segments) for every run")
	attribDiff := fs.String("attribdiff", "", "with -attrib: diff two runs' blame tables by sequence number, e.g. 1,2")
	parallel := fs.Int("parallel", runtime.NumCPU(), "sweep cells run on this many goroutines (1 = sequential; output is byte-identical at any width)")
	workers := fs.String("workers", "", "override the -exp scale worker counts (comma-separated, e.g. 4096,16384,65536)")
	benchOut := fs.String("bench-out", "", "write the -exp scale rows as a benchmark JSON record to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(os.Args[1:])

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("friedabench: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("friedabench: -cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("friedabench: -memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // materialise final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("friedabench: -memprofile: %v", err)
			}
		}()
	}

	scaleWorkers := experiments.DefaultScaleWorkers
	if *workers != "" {
		scaleWorkers = nil
		for _, part := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				log.Fatalf("friedabench: -workers: bad worker count %q", part)
			}
			scaleWorkers = append(scaleWorkers, n)
		}
	}

	if *attribDiff != "" && !*attribOn {
		log.Fatal("friedabench: -attribdiff requires -attrib")
	}
	if *benchOut != "" && *exp != "scale" {
		log.Fatal("friedabench: -bench-out requires -exp scale")
	}
	if (*traceOut != "" || *metricsOut != "" || *attribOn) && *parallel != 1 {
		// The collector numbers runs in Instrument-arrival order, which is
		// only deterministic when cells run one at a time.
		fmt.Fprintln(os.Stderr, "friedabench: -trace/-metrics/-attrib force -parallel 1 (deterministic run numbering)")
		*parallel = 1
	}
	experiments.SetParallelism(*parallel)

	col := &collector{
		traceOut: *traceOut, metricsOut: *metricsOut, periodSec: *metricsPeriod,
		attribOn: *attribOn, attribDiff: *attribDiff,
	}
	col.install()

	failed := false
	run := func(name string, e experiment) {
		err := e.run(runOpts{scale: *scale, gantt: *gantt, col: col, scaleWorkers: scaleWorkers, benchOut: *benchOut})
		if err == nil {
			return
		}
		// A sweep with failed cells still rendered its surviving rows;
		// list the failed cells' coordinates and keep going so one bad
		// parameter point doesn't hide the rest of the grid.
		var sweepErr *exprun.SweepError
		if errors.As(err, &sweepErr) {
			failed = true
			fmt.Printf("%s: %d/%d cells failed:\n", name, len(sweepErr.Cells), sweepErr.Total)
			for _, c := range sweepErr.Cells {
				fmt.Printf("  %s: %v\n", c.Label, c.Err)
			}
			fmt.Println()
			return
		}
		log.Fatalf("friedabench: %s: %v", name, err)
	}
	e, ok := findExperiment(*exp)
	switch {
	case !ok:
		log.Fatalf("friedabench: %s: unknown experiment %q\n%s", *exp, *exp, experimentList())
	case e.name == "list":
		fmt.Print(experimentList())
		return 0
	case e.run == nil:
		// A sequence: every entry that names it, in table order.
		for _, m := range experimentTable {
			if m.seq == e.name {
				run(m.name, m)
			}
		}
	default:
		run(*exp, e)
	}
	if err := col.export(); err != nil {
		log.Fatalf("friedabench: export: %v", err)
	}
	if failed {
		return 1
	}
	return 0
}

// runOpts carries the flags an experiment's run function reads.
type runOpts struct {
	scale        float64
	gantt        bool
	col          *collector
	scaleWorkers []int
	benchOut     string
}

// experiment is one -exp entry. experimentTable is the only place an
// experiment is named: -exp list prints it in order, -exp runs an entry by
// name or alias, and an entry without a run function is a sequence that
// runs, in table order, every entry whose seq names it.
type experiment struct {
	name    string
	aliases []string
	seq     string
	desc    string
	run     func(runOpts) error
}

var experimentTable = []experiment{
	{name: "all", desc: "Table I and Figures 6a/6b/7a/7b (the paper's evaluation)"},
	{name: "table1", seq: "all", desc: "Table I: effect of data parallelization vs the sequential baseline",
		run: func(o runOpts) error {
			rows, err := experiments.RunTable1(o.scale)
			fmt.Print(experiments.RenderTable1(rows))
			fmt.Println()
			return err
		}},
	{name: "fig6a", seq: "all", desc: "Figure 6a: partitioning strategies on ALS (transfer-bound)",
		run: figure("ALS", experiments.RunFig6,
			"Figure 6a: Effect of Different Partitioning — ALS (paper: local < real-time < pre-remote)")},
	{name: "fig6b", seq: "all", desc: "Figure 6b: partitioning strategies on BLAST (compute-bound)",
		run: figure("BLAST", experiments.RunFig6,
			"Figure 6b: Effect of Different Partitioning — BLAST (paper: near-parity, real-time best)")},
	{name: "fig7a", seq: "all", desc: "Figure 7a: data movement / placement on ALS",
		run: figure("ALS", experiments.RunFig7,
			"Figure 7a: Effect of Data Movement — ALS (paper: compute-to-data wins decisively)")},
	{name: "fig7b", seq: "all", desc: "Figure 7b: data movement / placement on BLAST",
		run: figure("BLAST", experiments.RunFig7,
			"Figure 7b: Effect of Data Movement — BLAST (paper: placement-insensitive)")},
	{name: "ablations", desc: "every quick ablation sweep below, in sequence"},
	{name: "ablation-prefetch", seq: "ablations", desc: "real-time prefetch window depth on ALS",
		run: sweep("Ablation: real-time prefetch window (ALS)", "prefetch", experiments.AblationPrefetch)},
	{name: "ablation-bandwidth", seq: "ablations", desc: "provisioned link bandwidth sweep on ALS",
		run: sweep("Ablation: provisioned bandwidth sweep (ALS)", "mbps", experiments.AblationBandwidth)},
	{name: "ablation-variance", seq: "ablations", desc: "task-cost drift vs pre-partition imbalance on BLAST",
		run: sweep("Ablation: task-cost drift vs pre-partition penalty (BLAST)", "drift", experiments.AblationVariance)},
	{name: "ablation-failures", seq: "ablations", desc: "VM failures: isolate (paper) vs recover vs replace",
		run: sweep("Ablation: VM failures — isolation (paper) vs recovery (future work)", "mtbf_sec", experiments.AblationFailures)},
	{name: "ablation-elastic", seq: "ablations", desc: "elastic worker additions mid-run on BLAST",
		run: sweep("Ablation: elastic worker additions mid-run (BLAST)", "added", experiments.AblationElastic)},
	{name: "ablation-federated", seq: "ablations", desc: "two-site placement over a 50 Mbps WAN on ALS",
		run: sweep("Ablation: federated two-site placement over a 50 Mbps WAN (ALS)", "remote_workers", experiments.AblationFederated)},
	{name: "ablation-stripes", seq: "ablations", desc: "GridFTP-style transfer striping on a contended fabric",
		run: sweep("Ablation: GridFTP-style striping on a contended fabric", "stripes", experiments.AblationStripes)},
	{name: "ablation-storage", seq: "ablations", desc: "worker storage tier (local / block / networked) on ALS",
		run: sweep("Ablation: worker storage tier at 1 Gbps (ALS; 0=local 1=block 2=networked)", "tier", experiments.AblationStorage)},
	{name: "netfail", aliases: []string{"ablation-netfail"}, seq: "ablations",
		desc: "link faults: isolate vs retry vs resume, plus partition duration",
		run: func(o runOpts) error {
			if err := appSweeps("Ablation: link faults — %s (mean outage 25s; isolate=prototype, retry=requeue, resume=+offset+replicas)",
				"mtbf_sec", experiments.AblationNetFail)(o); err != nil {
				return err
			}
			return sweep("Ablation: partition duration — BLAST (per-worker link MTBF 8000s)", "mttr_sec", experiments.AblationPartition)(o)
		}},
	{name: "stragglers", aliases: []string{"ablation-stragglers"},
		desc: "gray failures: detection, speculation and hedged transfers",
		run: appSweeps("Ablation: gray failures — %s (slow workers/disks/links; none=invisible, detect=+pause, spec=+clone, hedge=+race, both)",
			"mtbs_sec", experiments.AblationStragglers)},
	{name: "masterfail", aliases: []string{"ablation-masterfail"},
		desc: "master crashes: crashfree vs journaled vs amnesiac recovery",
		run: appSweeps("Ablation: master crashes — %s (mean outage 30s; crashfree=immortal, journal=WAL replay, amnesia=no persistent state)",
			"mtbf_sec", experiments.AblationMasterFail)},
	{name: "durability", aliases: []string{"ablation-durability"},
		desc: "RF sweep under combined link+disk+worker chaos",
		run: appSweeps("Ablation: durability chaos — %s (RF 1/2/3 under combined link+disk+worker faults, dead VMs replaced)",
			"mtbf_sec", experiments.AblationDurability)},
	{name: "ctrlplane", aliases: []string{"ablation-ctrlplane"},
		desc: "execution-template control plane: decision cost off/on vs task granularity",
		run: appSweeps("Ablation: execution-template control plane — %s (chunk = micro-tasks per task; off=priced slow path, on=template replay+check)",
			"chunk", experiments.AblationCtrlPlane)},
	{name: "scale", desc: "BLAST real-time on fat-tree testbeds beyond the paper's 4 VMs",
		run: func(o runOpts) error {
			rows, err := experiments.ScaleSweep(o.scaleWorkers, o.scale)
			printSweep("Large-scale sweep: BLAST real-time beyond the paper's 4 VMs (wall_ms = real time to simulate)", "workers", rows)
			if err != nil || o.benchOut == "" {
				return err
			}
			return writeScaleBench(o.benchOut, rows)
		}},
	{name: "list", desc: "print this list"},
}

// findExperiment looks an experiment up by name or alias.
func findExperiment(name string) (experiment, bool) {
	for _, e := range experimentTable {
		if e.name == name || slices.Contains(e.aliases, name) {
			return e, true
		}
	}
	return experiment{}, false
}

// experimentList names every experiment with a one-line description, for
// -exp list and the unknown-experiment error.
func experimentList() string {
	var b strings.Builder
	b.WriteString("experiments:\n")
	for _, e := range experimentTable {
		fmt.Fprintf(&b, "  %-20s %s\n", e.name, e.desc)
	}
	return b.String()
}

// figure runs and prints one of the paper's bar figures; with -gantt it adds
// the worker timeline.
func figure(app string, fig func(string, float64) ([]experiments.Bar, error), title string) func(runOpts) error {
	return func(o runOpts) error {
		bars, err := fig(app, o.scale)
		fmt.Print(experiments.RenderBars(title, bars))
		fmt.Println()
		if err != nil || !o.gantt {
			return err
		}
		return printGantt(app, o.scale, o.col)
	}
}

// sweep runs and prints one parameter sweep.
func sweep(title, param string, f func(float64) ([]experiments.SweepRow, error)) func(runOpts) error {
	return func(o runOpts) error {
		rows, err := f(o.scale)
		printSweep(title, param, rows)
		return err
	}
}

// appSweeps runs and prints f for ALS then BLAST, stopping at the first
// error; title formats the application name in.
func appSweeps(title, param string, f func(string, float64) ([]experiments.SweepRow, error)) func(runOpts) error {
	return func(o runOpts) error {
		for _, app := range []string{"ALS", "BLAST"} {
			rows, err := f(app, o.scale)
			printSweep(fmt.Sprintf(title, app), param, rows)
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// printSweep prints a rendered sweep and the blank line that follows it.
func printSweep(title, param string, rows []experiments.SweepRow) {
	fmt.Print(experiments.RenderSweep(title, param, rows))
	fmt.Println()
}

// writeScaleBench records the scale sweep as a benchmark JSON file
// (BENCH_scale.json): one entry per cluster size with the wall-clock (whole
// cell, and its setup part), event-count and derived per-event / per-flow
// cost columns, plus enough environment detail to interpret the absolute
// numbers later.
func writeScaleBench(path string, rows []experiments.SweepRow) error {
	type benchRow struct {
		Workers      int     `json:"workers"`
		MakespanSec  float64 `json:"makespan_sec"`
		BytesMovedGB float64 `json:"bytes_moved_gb"`
		SimEvents    float64 `json:"sim_events"`
		WallMs       float64 `json:"wall_ms"`
		SetupMs      float64 `json:"setup_ms"`
		EventsPerSec float64 `json:"events_per_sec"`
		UsPerEvent   float64 `json:"us_per_event"`
		UsPerFlow    float64 `json:"us_per_flow"`
	}
	spec := experiments.DefaultTreeSpec()
	out := struct {
		Description string     `json:"description"`
		Go          string     `json:"go"`
		CPU         string     `json:"cpu"`
		Topology    string     `json:"topology"`
		Rows        []benchRow `json:"rows"`
	}{
		Description: "BLAST real-time sweep on the rack/spine fat-tree testbed with cold-link aggregation and batched scheduling; us_per_event staying flat as workers grow is the scalability claim",
		Go:          runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:         cpuModel(),
		Topology: fmt.Sprintf("fat-tree: %d hosts/rack, %d spines, %g:1 oversubscription",
			spec.HostsPerRack, spec.Spines, spec.Oversubscription),
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, benchRow{
			Workers:      int(r.Param),
			MakespanSec:  r.Series["makespan_sec"],
			BytesMovedGB: r.Series["bytes_moved_gb"],
			SimEvents:    r.Series["sim_events"],
			WallMs:       r.Series["wall_ms"],
			SetupMs:      r.Series["setup_ms"],
			EventsPerSec: r.Series["events_per_sec"],
			UsPerEvent:   r.Series["us_per_event"],
			UsPerFlow:    r.Series["us_per_flow"],
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d sizes\n", path, len(out.Rows))
	return nil
}

// cpuModel best-effort reads the processor model for bench records.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// printGantt renders a real-time run's worker timeline; with -trace active
// it also prints the run's span-level phase breakdown.
func printGantt(app string, scale float64, col *collector) error {
	var wl simrun.Workload
	if app == "ALS" {
		wl = experiments.ALSWorkload(scale)
	} else {
		wl = experiments.BLASTWorkload(scale, 1)
	}
	res, err := experiments.RunStrategy(simrun.Config{Strategy: experiments.StrictRealTime()}, wl, 4, 1)
	if err != nil {
		return err
	}
	fmt.Print(trace.Gantt(res, 72))
	fmt.Print(trace.Summary(res))
	if col.last != nil {
		fmt.Print(trace.SpanSummary(col.last, col.lastMetrics))
	}
	fmt.Println()
	return nil
}
