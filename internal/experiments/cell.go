package experiments

import (
	"fmt"

	"frieda/internal/cloud"
	"frieda/internal/exprun"
	"frieda/internal/sim"
	"frieda/internal/simrun"
)

// newTestbed provisions one data-source node plus nWorkers VMs of one
// instance type on a fresh engine and lets them come up. Boot is always
// instant: like the paper, every experiment measures from a running cluster.
func newTestbed(opts cloud.Options, inst cloud.InstanceType, nWorkers int) (*Testbed, error) {
	eng := sim.NewEngine()
	opts.InstantBoot = true
	cluster := cloud.New(eng, opts)
	vms, err := cluster.Provision(nWorkers+1, inst)
	if err != nil {
		return nil, err
	}
	eng.RunUntil(eng.Now())
	return &Testbed{Engine: eng, Cluster: cluster, Source: vms[0], Workers: vms[1:]}, nil
}

// paperTestbed is newTestbed for the paper's c1.xlarge VMs, whose
// configuration is static and cannot fail to provision.
func paperTestbed(opts cloud.Options, nWorkers int) *Testbed {
	tb, err := newTestbed(opts, cloud.C1XLarge, nWorkers)
	if err != nil {
		panic(err) // static configuration
	}
	return tb
}

// injector arms a cell's faults and mid-run actions on a prepared runner,
// just before the run starts. The returned stop is called exactly once when
// the run is over — finished or deadlocked — to disarm whatever perpetually
// re-arms itself, and reports a failure of the injection itself. An injector
// with nothing to disarm returns a nil stop.
type injector func(tb *Testbed, r *simrun.Runner) (stop func() error)

// prepare builds a cell's runner on the testbed: the Instrument hook sees
// the labelled config first, then every testbed worker joins the initial
// set. Experiments always model disk I/O.
func prepare(label string, tb *Testbed, cfg simrun.Config, wl simrun.Workload) (*simrun.Runner, error) {
	cfg.ModelDiskIO = true
	instrument(label, tb.Cluster, &cfg)
	r, err := simrun.NewRunner(tb.Cluster, tb.Source, cfg, wl)
	if err != nil {
		return nil, err
	}
	r.AddWorkers(tb.Workers)
	return r, nil
}

// runCell is the one simulated-cell driver: prepare the runner, arm the
// optional injector, start, and step the engine until the run reports its
// result. It stops there rather than draining the queue, because fault
// injectors re-arm forever; an engine that drains first has deadlocked. A
// deadlock outranks the injector's own error.
func runCell(label string, tb *Testbed, cfg simrun.Config, wl simrun.Workload, inject injector) (simrun.Result, error) {
	r, err := prepare(label, tb, cfg, wl)
	if err != nil {
		return simrun.Result{}, err
	}
	var stop func() error
	if inject != nil {
		stop = inject(tb, r)
	}
	var result simrun.Result
	finished := false
	err = r.Start(func(res simrun.Result) { result, finished = res, true })
	if err == nil {
		for !finished && tb.Engine.Step() {
		}
		if !finished {
			err = fmt.Errorf("experiments: %s deadlocked: engine drained with the run unfinished (%d tasks terminal)",
				label, r.Terminal())
		}
	}
	if stop != nil {
		if serr := stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return simrun.Result{}, err
	}
	return result, nil
}

// replaceDead is the controller's remediation for worker crashes: each
// failed worker VM triggers a fresh provision that joins the run as soon as
// it is up; joined, when non-nil, then sees the replacement. stop ends the
// replacing (otherwise the failure/replace chain would churn forever on an
// idle cluster) and surfaces the first provision failure instead of letting
// "replace" silently degrade into "recover".
func replaceDead(tb *Testbed, r *simrun.Runner, joined func(*cloud.VM)) (stop func() error) {
	stopped := false
	var provisionErr error
	tb.Cluster.OnFailure(func(dead *cloud.VM) {
		if stopped || dead.Host() == tb.Source.Host() {
			return
		}
		fresh, err := tb.Cluster.Provision(1, cloud.C1XLarge)
		if err != nil {
			if provisionErr == nil {
				provisionErr = fmt.Errorf("experiments: replacement provision: %w", err)
			}
			return
		}
		replacement := fresh[0]
		tb.Cluster.OnReadyOnce(replacement, func() {
			if stopped {
				return
			}
			r.AddWorker(replacement)
			if joined != nil {
				joined(replacement)
			}
		})
	})
	return func() error {
		stopped = true
		return provisionErr
	}
}

// sweepGrid fans a (param × mode) grid across the sweep pool — every
// combination is an independent seeded simulation — and returns the results
// indexed [param][mode]. Failed cells hold zero Results and are listed in
// the returned *exprun.SweepError.
func sweepGrid(sweepName string, params []float64, modes []string, run func(p float64, mode string) (simrun.Result, error)) ([][]simrun.Result, error) {
	var cells []exprun.Cell[simrun.Result]
	for _, p := range params {
		for _, mode := range modes {
			p, mode := p, mode
			cells = append(cells, cell(
				fmt.Sprintf("%s/param=%g/%s/seed=7", sweepName, p, mode),
				func() (simrun.Result, error) { return run(p, mode) }))
		}
	}
	flat, err := runCells(cells)
	grid := make([][]simrun.Result, len(params))
	for i := range grid {
		grid[i] = flat[i*len(modes) : (i+1)*len(modes)]
	}
	return grid, err
}
