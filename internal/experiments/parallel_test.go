package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"frieda/internal/exprun"
	"frieda/internal/simrun"
)

// testScale keeps parallel-orchestration tests fast; the cells are real
// simulations, just small ones.
const parallelTestScale = 0.02

// Property: a grid of independently-seeded runs produces identical result
// slices at pool width 1 and width 8 — the determinism claim behind
// friedabench's -parallel flag, checked over many workload seeds.
func TestRunCellsWidthInvariantOverSeeds(t *testing.T) {
	defer SetParallelism(0)
	prop := func(seed int64) bool {
		mk := func() []exprun.Cell[simrun.Result] {
			var cells []exprun.Cell[simrun.Result]
			for i := int64(0); i < 4; i++ {
				s := seed + i
				cells = append(cells, cell(fmt.Sprintf("prop/BLAST/seed=%d", s),
					func() (simrun.Result, error) {
						return RunStrategy(realTime(), BLASTWorkload(parallelTestScale, s), 4, 1)
					}))
				// Gray-failure cells ride along: straggler injection,
				// adaptive detection, speculation, and hedging all draw from
				// per-cell seeded RNGs, so they must be exactly as
				// width-invariant as the plain runs.
				cells = append(cells, cell(fmt.Sprintf("prop/stragglers/seed=%d", s),
					func() (simrun.Result, error) {
						return runStragglers(chunkTasks(BLASTWorkload(parallelTestScale, s), 30),
							stragglerSpec{mtbsSec: 120, durSec: 300, severity: 0.05}, "both")
					}))
			}
			return cells
		}
		SetParallelism(1)
		seq, err1 := runCells(mk())
		SetParallelism(8)
		par, err2 := runCells(mk())
		return err1 == nil && err2 == nil && reflect.DeepEqual(seq, par)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// A full rendered sweep must be byte-identical at any pool width: the table
// text is what the CI parallel-consistency guard compares.
func TestSweepRenderingWidthInvariant(t *testing.T) {
	defer SetParallelism(0)
	render := func() string {
		rows, err := AblationVariance(parallelTestScale)
		if err != nil {
			t.Fatal(err)
		}
		return RenderSweep("variance", "drift", rows)
	}
	SetParallelism(1)
	seq := render()
	SetParallelism(8)
	par := render()
	if seq != par {
		t.Fatalf("rendered sweep differs across pool widths:\n--- parallel=1\n%s--- parallel=8\n%s", seq, par)
	}
}

// Two sweeps running concurrently (as a caller embedding the experiments
// package might) must not interfere; under -race this is the orchestration
// layer's data-race check over real simulation cells. The durability sweep
// loses and repairs files through each cell's replica map, and the
// master-failure sweep at 0.1 has an outage that replays a journal into a
// State, so a map, journal or State shared between cells would race here.
func TestConcurrentSweeps(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	for _, tc := range []struct {
		name  string
		sweep func() ([]SweepRow, error)
	}{
		{"prefetch", func() ([]SweepRow, error) { return AblationPrefetch(parallelTestScale) }},
		{"durability", func() ([]SweepRow, error) { return AblationDurability("BLAST", parallelTestScale) }},
		{"masterfail", func() ([]SweepRow, error) { return AblationMasterFail("ALS", 0.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			outs := make([][]SweepRow, 2)
			errs := make([]error, 2)
			for i := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[i], errs[i] = tc.sweep()
				}()
			}
			wg.Wait()
			for i := range outs {
				if errs[i] != nil {
					t.Fatalf("sweep %d: %v", i, errs[i])
				}
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Fatalf("concurrent identical sweeps diverged:\n%+v\nvs\n%+v", outs[0], outs[1])
			}
		})
	}
}

// A failing cell must surface its coordinates without killing the sweep:
// the surviving cell's result is still returned alongside the error.
func TestSweepReportsFailedCellCoordinates(t *testing.T) {
	cells := []exprun.Cell[simrun.Result]{
		cell("probe/BLAST/seed=1", func() (simrun.Result, error) {
			return RunStrategy(realTime(), BLASTWorkload(parallelTestScale, 1), 4, 1)
		}),
		cell("probe/unknown-app", func() (simrun.Result, error) {
			_, err := workloadBuilder("nope", 1)
			return simrun.Result{}, err
		}),
	}
	results, err := runCells(cells)
	var sweep *exprun.SweepError
	if !errors.As(err, &sweep) {
		t.Fatalf("error type %T, want *exprun.SweepError (err=%v)", err, err)
	}
	if len(sweep.Cells) != 1 || sweep.Cells[0].Index != 1 || sweep.Cells[0].Label != "probe/unknown-app" {
		t.Fatalf("failed-cell coordinates wrong: %+v", sweep.Cells)
	}
	if results[0].MakespanSec <= 0 {
		t.Fatalf("surviving cell's result lost: %+v", results[0])
	}
}

// BenchmarkExpAblations times a representative ablation grid (the
// bandwidth sweep: 12 independent cells) at the configured parallelism. It
// profiles the pool; the benchmark's exprun.cell_overhead_ns and
// exprun.parallel_speedup rows measure it.
func BenchmarkExpAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := AblationBandwidth(0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurabilitySweep is the sim_durability workload's sweep,
// AblationDurability("BLAST", 0.25): nine fault-and-repair cells at pool
// width 1, so ns/op is one goroutine's. On a 2-vCPU Xeon (go1.24), 12
// alternating pairs of 20 iterations: 70.1 ms/op (IQR 63.8–72.7) while
// catalog.Replicas took a lock per call, 65.3 ms/op without it (median
// ratio 0.93, inside that IQR). In a 30-iteration CPU profile, catalog
// frames fell from 26.9% to 17.4% cumulative, and the sync and sync/atomic
// frames under them from 8.4% to none.
func BenchmarkDurabilitySweep(b *testing.B) {
	defer SetParallelism(0)
	SetParallelism(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationDurability("BLAST", 0.25); err != nil {
			b.Fatal(err)
		}
	}
}
