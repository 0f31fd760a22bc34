package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"frieda/internal/simrun"
	"frieda/internal/strategy"
)

// The sweep must run at cluster sizes beyond the paper's 4 VMs and keep the
// workload conserved: every byte staged, every task terminal.
func TestScaleSweepSmall(t *testing.T) {
	rows, err := ScaleSweep([]int{8, 32}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Series["makespan_sec"] <= 0 {
			t.Fatalf("workers=%v: non-positive makespan %v", r.Param, r.Series["makespan_sec"])
		}
		if r.Series["bytes_moved_gb"] <= 0 {
			t.Fatalf("workers=%v: no bytes moved", r.Param)
		}
	}
	// More workers stage more DB copies, so bytes strictly grow.
	if rows[1].Series["bytes_moved_gb"] <= rows[0].Series["bytes_moved_gb"] {
		t.Fatalf("bytes did not grow with workers: %v vs %v",
			rows[0].Series["bytes_moved_gb"], rows[1].Series["bytes_moved_gb"])
	}
}

// TestScaleReferenceIsCurrent reruns the scale sweep at the worker counts of
// BENCH_scale.json and asserts that its simulated columns equal the file's
// exactly. The benchmark's sim_scale workload checks its 65,536-worker cell
// against that row with exact float equality, while the goldens compare two
// decimals; a simulator change that regenerates the goldens must regenerate
// this file too (`make bench-scale`).
func TestScaleReferenceIsCurrent(t *testing.T) {
	if raceEnabled {
		t.Skip("the 65,536-worker cell is too slow under the race detector")
	}
	data, err := os.ReadFile("../../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	var record struct {
		Rows []map[string]float64 `json:"rows"`
	}
	if err := json.Unmarshal(data, &record); err != nil {
		t.Fatalf("BENCH_scale.json: %v", err)
	}
	if len(record.Rows) == 0 {
		t.Fatal("BENCH_scale.json has no rows")
	}
	var workers []int
	for _, ref := range record.Rows {
		workers = append(workers, int(ref["workers"]))
	}
	rows, err := ScaleSweep(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range record.Rows {
		for _, col := range []string{"makespan_sec", "sim_events", "bytes_moved_gb"} {
			if got := rows[i].Series[col]; got != ref[col] {
				t.Errorf("workers=%d: %s = %v, BENCH_scale.json has %v; regenerate it with `make bench-scale`",
					workers[i], col, got, ref[col])
			}
		}
	}
}

// Determinism guard: the same seed and configuration must produce an
// identical Result — completions, per-worker counts, phase accounting, all
// of it — across repeated runs on the incremental allocator.
func TestRunDeterminism(t *testing.T) {
	run := func() simrun.Result {
		res, err := RunStrategy(simrun.Config{Strategy: strategy.RealTimeRemote},
			BLASTWorkload(0.02, 1), 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}
