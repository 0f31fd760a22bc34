package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options selects one run. The fields after outDir are not flags: they are
// the seams the tests in this directory use.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the inputs for the smoke test; reference values are
	// only checked at 1.
	scale  float64
	outDir string
	// out receives the header and the human-readable lines.
	out io.Writer

	// minIters is the least number of timed iterations (7 outside tests).
	minIters int
	// corrupt damages one payload after its checksum was recorded.
	corrupt bool
	// refDir holds goldens/ and BENCH_scale.json (the repo root).
	refDir string
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// iterStats is what one timed job or sweep produced.
type iterStats struct {
	wall time.Duration
	// ops is tasks reported OK (rt_*) or simulator events fired (sim_*).
	ops int
	// attempted and failed count tasks (rt_*) or sweep cells (sim_*).
	attempted, failed int
	// alloc and mallocs are MemStats deltas read outside the timed region.
	alloc, mallocs uint64
	// bad is a failed correctness check.
	bad error
}

// workload is one of the six input sets.
type workload interface {
	// setup makes the inputs from the seed, loads the reference values and
	// runs one untimed warm-up iteration.
	setup(ctx context.Context) error
	// iterate runs one job or sweep, with the tracing wrappers when traced.
	iterate(ctx context.Context, iter int, traced bool) iterStats
	// layers returns the per-layer metrics: the summary of the traced
	// iterations, the probes of the layers this workload uses and its extra
	// traced iterations. untraced is the untraced median iteration time.
	layers(ctx context.Context, untraced time.Duration) (values, error)
	// itersPer10s is the iteration count that fills ten seconds at the
	// commit that added the benchmark.
	itersPer10s() int
}

// setupRepeats is how often set-up runs so that setup_s can be a median.
const setupRepeats = 3

// errInterrupted marks a run cut short by the watchdog or a signal.
var errInterrupted = errors.New("interrupted")

// run executes one workload and returns its result. When ctx is cancelled
// it returns what it has together with errInterrupted.
func run(ctx context.Context, opts options) (result, error) {
	res, err := runWorkload(ctx, opts)
	if ctx.Err() != nil {
		// Whatever a cancelled iteration or set-up reported, the cause is
		// the interruption.
		return res, errInterrupted
	}
	return res, err
}

func runWorkload(ctx context.Context, opts options) (result, error) {
	out := opts.out
	w, err := newWorkload(opts)
	if err != nil {
		return result{}, err
	}
	n := int(float64(w.itersPer10s())*opts.seconds/10 + 0.5)
	if n < opts.minIters {
		n = opts.minIters
	}
	printHeader(out, opts, n)

	res := result{Correct: true}
	if !opts.trace {
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			start := time.Now()
			if err := w.setup(ctx); err != nil {
				return res, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		samples := measure(ctx, w, n, false, opts, &res, out)
		v := endToEndValues(setups, samples)
		printSummary(out, "setup_s", setups)
		printSummary(out, "iter_s", walls(samples))
		res.Metrics, err = report(endToEnd, v, true)
		return res, err
	}

	if err := w.setup(ctx); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	// A third of the iterations untraced, then a third traced: the first
	// gives the reference the tracing overhead is measured against.
	third := n / 3
	if third < 2 {
		third = 2
	}
	plain := measure(ctx, w, third, false, opts, &res, out)
	traced := measure(ctx, w, third, true, opts, &res, out)
	untraced := time.Duration(median(walls(plain)) * float64(time.Second))
	v, err := w.layers(ctx, untraced)
	if err != nil {
		return res, err
	}
	if untraced > 0 {
		v["trace_overhead_frac"] = (median(walls(traced)) - untraced.Seconds()) / untraced.Seconds()
	}
	v["proc.peak_rss_mb"] = peakRSSMB()
	printSummary(out, "iter_s untraced", walls(plain))
	printSummary(out, "iter_s traced", walls(traced))
	res.Metrics, err = report(perLayer, v, false)
	return res, err
}

// measure runs up to n iterations and books their operations and
// correctness into res. The count is fixed so that attempted repeats
// exactly; on a box so slow that 1.5 × the time box has passed, it stops
// once minIters are done so the driver's total budget holds.
func measure(ctx context.Context, w workload, n int, traced bool, opts options, res *result, out io.Writer) []iterStats {
	var samples []iterStats
	start := time.Now()
	limit := time.Duration(1.5 * opts.seconds * float64(time.Second))
	for i := 0; i < n && ctx.Err() == nil; i++ {
		if len(samples) >= opts.minIters && time.Since(start) > limit {
			fmt.Fprintf(out, "# time box exceeded after %d of %d iterations\n", i, n)
			break
		}
		s := w.iterate(ctx, i, traced)
		if ctx.Err() != nil {
			break // a cancelled iteration is not a measurement
		}
		res.Attempted += s.attempted
		res.Failed += s.failed
		if s.bad != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "bench: %s iteration %d incorrect: %v\n", opts.workload, i, s.bad)
		}
		samples = append(samples, s)
	}
	return samples
}

// endToEndValues derives the end-to-end metrics from the timed iterations.
func endToEndValues(setups []float64, samples []iterStats) values {
	v := values{"setup_s": median(setups), "iter_s": median(walls(samples))}
	var rates []float64
	var ops, alloc, mallocs float64
	for _, s := range samples {
		if s.ops > 0 && s.wall > 0 {
			rates = append(rates, float64(s.ops)/s.wall.Seconds())
		}
		ops += float64(s.ops)
		alloc += float64(s.alloc)
		mallocs += float64(s.mallocs)
	}
	v["ops_per_s"] = median(rates)
	if ops > 0 {
		v["alloc_bytes_per_op"] = alloc / ops
		v["mallocs_per_op"] = mallocs / ops
	}
	return v
}

// timed runs fn between two MemStats reads and returns its wall time and
// what it allocated; the reads themselves are outside the timed region.
func timed(fn func()) (wall time.Duration, alloc, mallocs uint64) {
	var before, after runtime.MemStats
	// Every iteration starts from a collected heap, so none pays for the
	// garbage of the one before it and the collector's cycles fall at the
	// same points of every iteration.
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// settleGoroutines waits for the goroutine count to fall back to before and
// reports an error if it does not: every job and sweep must leave nothing
// running. (The controller's receive loop exits on its own just after
// Shutdown returns, hence the short grace period.)
func settleGoroutines(before int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines before the iteration, %d after it", before, now)
		}
		time.Sleep(time.Millisecond)
	}
}

func walls(samples []iterStats) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wall.Seconds()
	}
	return out
}

// median returns the middle value, or 0 of nothing.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the sorted values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// printSummary prints a timing as n, first quartile, median, third quartile.
func printSummary(out io.Writer, name string, v []float64) {
	fmt.Fprintf(out, "# %-18s n=%-3d q1=%.6g median=%.6g q3=%.6g\n",
		name, len(v), quantile(v, 0.25), median(v), quantile(v, 0.75))
}

// printHeader says what produced the numbers below it, so that two result
// files can be compared without guessing.
func printHeader(out io.Writer, opts options, iters int) {
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%t scale=%g iterations=%d\n",
		opts.workload, opts.seed, opts.seconds, opts.trace, opts.scale, iters)
	fmt.Fprintf(out, "# commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d\n",
		commit(opts.refDir), runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// commit reads the checked-out commit from .git without running git; the
// driver's checkout is not a repository, where it reads "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+name); ok {
				return hash
			}
		}
	}
	return "unknown"
}

// cpuModel reads the processor model, best effort.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's peak resident set (VmHWM), 0 where /proc
// has none.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
