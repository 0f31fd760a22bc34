// Command bench is FRIEDA's one benchmark for both stacks: three workloads
// drive the real runtime (protocol → transport → core → frieda.Run) and
// three drive the simulator (sim → netsim → cloud → simrun → experiments),
// each end to end and, with -trace 1, layer by layer. BENCHMARK.json at the
// repo root names the workloads and metrics; README.md explains them.
//
// The benchmark is one OS process. Master, workers and controller are
// goroutines; it never executes another program, every listener is closed
// and every goroutine joined before it returns, and a watchdog ends a run
// that overstays its deadline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// newWorkload builds the named workload.
func newWorkload(opts options) (workload, error) {
	if _, ok := rtSpecs[opts.workload]; ok {
		return newRTWorkload(opts.workload, opts), nil
	}
	if _, ok := simSpecs[opts.workload]; ok {
		return newSimWorkload(opts.workload, opts), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", opts.workload, workloadNames())
}

func workloadNames() []string {
	var names []string
	for name := range rtSpecs {
		names = append(names, name)
	}
	for name := range simSpecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	setParentDeathSignal()
	os.Exit(realMain())
}

func realMain() int {
	opts := options{minIters: 7, refDir: "..", out: os.Stdout}
	var trace int
	var deadline time.Duration
	flag.StringVar(&opts.workload, "workload", "", "workload to run: one of "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the rt_* payloads and file names; sim_* record it and ignore it")
	flag.Float64Var(&opts.seconds, "seconds", 10, "time box: iteration counts are scaled to fill it")
	flag.IntVar(&trace, "trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.Float64Var(&opts.scale, "scale", 1, "shrink the inputs (smoke tests only; reference values are checked at 1)")
	flag.StringVar(&opts.outDir, "out", "", "with -trace 1: write DIR/trace-<workload>.json as Chrome trace-event JSON")
	flag.DurationVar(&deadline, "deadline", 0, "whole-run watchdog deadline (default 30s + 6 × -seconds, at most 170s)")
	flag.Parse()
	opts.trace = trace != 0
	if opts.scale <= 0 || opts.scale > 1 || opts.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -scale must be in (0,1] and -seconds positive")
		return 2
	}
	if deadline <= 0 {
		deadline = 30*time.Second + time.Duration(6*opts.seconds*float64(time.Second))
		if deadline > 170*time.Second {
			deadline = 170 * time.Second
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	watchdog := time.NewTimer(deadline)
	defer watchdog.Stop()

	type outcome struct {
		res result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := run(ctx, opts)
		done <- outcome{res, err}
	}()

	var out outcome
	interrupted := true
	select {
	case out = <-done:
		interrupted = false
	case sig := <-signals:
		fmt.Fprintf(os.Stderr, "bench: %v: stopping\n", sig)
	case <-watchdog.C:
		fmt.Fprintf(os.Stderr, "bench: deadline of %v exceeded: stopping\n", deadline)
	}
	if interrupted {
		// The running job stops on its cancelled context and a
		// running sweep ends within seconds; if even that hangs, leave
		// without it.
		cancel()
		select {
		case out = <-done:
		case <-time.After(20 * time.Second):
			fmt.Fprintln(os.Stderr, "bench: run did not stop; exiting without a result")
			return 3
		}
	}

	if out.err != nil {
		// Print what there is, to standard error: a result line on standard
		// output is a promise that the run completed.
		partial, _ := json.Marshal(out.res)
		fmt.Fprintf(os.Stderr, "bench: %v\nbench: partial result: %s\n", out.err, partial)
		if errors.Is(out.err, errInterrupted) {
			return 3
		}
		return 1
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.res.Correct {
		return 1
	}
	return 0
}
