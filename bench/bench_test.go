package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// smokeOptions is a workload at a fiftieth of its size with two iterations.
func smokeOptions(workload string, trace bool) options {
	return options{
		workload: workload, seed: 7, seconds: 0.1, trace: trace,
		scale: 0.02, minIters: 2, refDir: "..", out: io.Discard,
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the metric lists in
// metrics.go to each other.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, benchmark has %q", got, want)
	}
	compare := func(kind string, listed []entry, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			if got := listed[i]; got != (entry{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, got, d)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload, untraced and traced, at -scale 0.02: each
// must pass its correctness checks, report exactly the metrics BENCHMARK.json
// names, fail no operation and leave no goroutine behind.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			before := runtime.NumGoroutine()
			start := time.Now()
			res, err := run(context.Background(), smokeOptions(name, trace))
			t.Logf("%s trace=%t: %.2fs", name, trace, time.Since(start).Seconds())
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics reported, %d defined", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or in unit %q", name, trace, d.name, m.Unit)
				}
			}
			if err := settleGoroutines(before); err != nil {
				t.Errorf("%s trace=%t: %v", name, trace, err)
			}
		}
	}
}

// TestCorruptPayloadIsIncorrect damages one input after its checksum was
// recorded; the run must not come out correct.
func TestCorruptPayloadIsIncorrect(t *testing.T) {
	for _, name := range []string{"rt_small_tcp", "rt_return_mem"} {
		opts := smokeOptions(name, false)
		opts.corrupt = true
		if res, err := run(context.Background(), opts); err == nil && res.Correct {
			t.Errorf("%s: a corrupted payload went unnoticed", name)
		}
	}
}

// TestWrongGoldenIsIncorrect runs sim_paper against a golden file with one
// digit changed; the run must not come out correct.
func TestWrongGoldenIsIncorrect(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "goldens", "exp_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "goldens"), 0o755); err != nil {
		t.Fatal(err)
	}
	wrong := bytes.Replace(golden, []byte("1283.07"), []byte("1283.08"), 1)
	if bytes.Equal(wrong, golden) {
		t.Fatal("golden has no 1283.07 to change")
	}
	if err := os.WriteFile(filepath.Join(dir, "goldens", "exp_all.txt"), wrong, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := smokeOptions("sim_paper", false)
	opts.scale, opts.refDir = 1, dir
	if res, err := run(context.Background(), opts); err == nil && res.Correct {
		t.Error("a wrong golden went unnoticed")
	}
}

// TestLeavesNothingBehind builds the binary and ends it three ways — it
// finishes, it is sent SIGTERM mid-job, its watchdog fires — and after each
// finds, through /proc, no process running that binary and no listening
// loopback port that was not there before.
func TestLeavesNothingBehind(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc")
	}
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "frieda-bench-under-test")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	listening := loopbackListeners(t)
	after := func(what string) {
		t.Helper()
		if pids := processesRunning(t, bin); len(pids) > 0 {
			t.Errorf("%s: processes %v still run the binary", what, pids)
		}
		for port := range loopbackListeners(t) {
			if !listening[port] {
				t.Errorf("%s: loopback port %s is still listening", what, port)
			}
		}
	}

	finished := exec.Command(bin, "--workload", "rt_small_tcp", "--seconds", "1", "--scale", "0.02")
	if out, err := finished.CombinedOutput(); err != nil {
		t.Fatalf("tiny run: %v\n%s", err, out)
	}
	after("finished run")

	var stderr bytes.Buffer
	killed := exec.Command(bin, "--workload", "rt_small_tcp", "--seconds", "30")
	killed.Stderr = &stderr
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond) // into the first job
	if err := killed.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := killed.Wait(); err == nil {
		t.Error("a run stopped by SIGTERM exited 0")
	}
	after("SIGTERM mid-job")

	stderr.Reset()
	overdue := exec.Command(bin, "--workload", "rt_bulk_tcp", "--seconds", "30", "--deadline", "1s")
	overdue.Stderr = &stderr
	err := overdue.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 3 {
		t.Errorf("watchdog run: %v, want exit status 3", err)
	}
	if !strings.Contains(stderr.String(), "partial result") {
		t.Errorf("watchdog run printed no partial result:\n%s", stderr.String())
	}
	after("watchdog expiry")
}

// processesRunning lists the pids whose executable is bin.
func processesRunning(t *testing.T, bin string) []string {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []string
	for _, e := range entries {
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			pids = append(pids, e.Name())
		}
	}
	return pids
}

// loopbackListeners is the set of 127.0.0.1 ports in LISTEN state.
func loopbackListeners(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		t.Fatal(err)
	}
	ports := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n")[1:] {
		f := strings.Fields(line)
		// local address is hex "0100007F:port"; state 0A is LISTEN.
		if len(f) > 3 && f[3] == "0A" && strings.HasPrefix(f[1], "0100007F:") {
			ports[f[1]] = true
		}
	}
	return ports
}
