package frieda

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// runBoth runs one dataset and strategy on both executors, three workers
// each, every group costing the simulator 0.01 s.
func runBoth(t *testing.T, ds Dataset, strat Strategy) (Report, SimResult) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ok := FuncProgram(func(context.Context, Task) (string, error) { return "ok", nil })
	real, err := Run(ctx, RunConfig{Strategy: strat, Dataset: ds, Program: ok, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Simulate(SimConfig{Strategy: strat, Dataset: ds, ComputeSec: 0.01, Workers: 3, DisableDiskModel: true})
	if err != nil {
		t.Fatal(err)
	}
	return real, sim
}

// TestRealVsSimulatedByteAccounting cross-validates the two executors: for
// the same dataset and strategy, the real runtime's payload byte count must
// equal the simulator's — both implement the same replica-dedup semantics,
// so any divergence means one of them moves data the other would not.
func TestRealVsSimulatedByteAccounting(t *testing.T) {
	const nFiles, fileSize = 18, 512
	files := map[string][]byte{}
	for i := 0; i < nFiles; i++ {
		files[fmt.Sprintf("f%03d", i)] = []byte(strings.Repeat("d", fileSize))
	}
	ds := MemDataset(files)
	for _, tc := range []struct {
		name  string
		strat Strategy
	}{
		{"real-time", RealTimeRemote},
		{"pre-partition", PrePartitionedRemote},
		{"no-partition", CommonData},
	} {
		t.Run(tc.name, func(t *testing.T) {
			real, sim := runBoth(t, ds, tc.strat)
			if real.Succeeded != nFiles || sim.Succeeded != nFiles {
				t.Fatalf("completions differ: real %d, sim %d", real.Succeeded, sim.Succeeded)
			}
			if float64(real.BytesMoved) != sim.BytesMoved {
				t.Fatalf("byte accounting diverged: real %d, sim %.0f", real.BytesMoved, sim.BytesMoved)
			}
		})
	}
}

// TestRealVsSimulatedCommonFiles extends the cross-validation to a
// database-style workload: the common file must be charged once per worker
// in both executors.
func TestRealVsSimulatedCommonFiles(t *testing.T) {
	const nQueries, qSize, dbSize = 10, 64, 4096
	files := map[string][]byte{"db.bin": []byte(strings.Repeat("D", dbSize))}
	for i := 0; i < nQueries; i++ {
		files[fmt.Sprintf("q%02d", i)] = []byte(strings.Repeat("q", qSize))
	}
	strat := RealTimeRemote
	strat.CommonFiles = []string{"db.bin"}
	real, sim := runBoth(t, MemDataset(files), strat)
	want := float64(3*dbSize + nQueries*qSize)
	if float64(real.BytesMoved) != want || sim.BytesMoved != want {
		t.Fatalf("bytes: real %d, sim %.0f, want %.0f", real.BytesMoved, sim.BytesMoved, want)
	}
}

// TestRealVsSimulatedGroupings extends the cross-validation to the paper's
// pairwise and one-to-all groupings: both executors build the identical
// partition plan from the same generator, so per-worker file dedup (the
// pivot file of one-to-all in particular) must produce identical byte
// accounting.
func TestRealVsSimulatedGroupings(t *testing.T) {
	const nFiles, fileSize = 12, 256
	files := map[string][]byte{}
	for i := 0; i < nFiles; i++ {
		files[fmt.Sprintf("g-%05d", i)] = []byte(strings.Repeat("g", fileSize))
	}
	ds := MemDataset(files)
	for _, grouping := range []string{"pairwise-adjacent", "one-to-all", "all-to-all"} {
		t.Run(grouping, func(t *testing.T) {
			strat := RealTimeRemote
			strat.Grouping = grouping
			real, sim := runBoth(t, ds, strat)
			if real.Groups != sim.Succeeded+sim.Abandoned {
				t.Fatalf("group counts differ: real %d, sim %d", real.Groups, sim.Succeeded+sim.Abandoned)
			}
			if real.Succeeded != sim.Succeeded {
				t.Fatalf("completions differ: real %d, sim %d", real.Succeeded, sim.Succeeded)
			}
			// Dedup semantics are timing-dependent for shared files (which
			// worker fetches a file first), so exact equality only holds per
			// run; both executors must stay within the same bounds: at least
			// one copy of every file, at most one copy per worker.
			lo := float64(nFiles * fileSize)
			hi := float64(3 * nFiles * fileSize)
			for name, got := range map[string]float64{
				"real": float64(real.BytesMoved), "sim": sim.BytesMoved,
			} {
				if got < lo || got > hi {
					t.Fatalf("%s moved %.0f bytes outside [%.0f, %.0f]", name, got, lo, hi)
				}
			}
		})
	}
}

// TestExecutorsShareGroups: one dataset and strategy give both executors
// one group list, Strategy.Groups'. Run's program sees each of its groups
// once, index and inputs, and Simulate settles as many, for every grouping
// under both remote strategies and with a common file left out of them.
func TestExecutorsShareGroups(t *testing.T) {
	files := map[string][]byte{"db.bin": []byte("database")}
	for i := 0; i < 7; i++ {
		files[fmt.Sprintf("s-%05d", i)] = []byte(strings.Repeat("s", 16+i))
	}
	ds := MemDataset(files)
	cat, err := ds.source.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	type group struct {
		index  int
		inputs []string
	}
	var cases []Strategy
	for _, grouping := range []string{"single", "one-to-all", "pairwise-adjacent", "all-to-all", "sliding-window"} {
		for _, strat := range []Strategy{RealTimeRemote, PrePartitionedRemote} {
			strat.Grouping = grouping
			cases = append(cases, strat)
		}
	}
	common := RealTimeRemote
	common.Grouping, common.CommonFiles = "one-to-all", []string{"db.bin"}
	cases = append(cases, common)
	for _, strat := range cases {
		name := strat.Kind.String() + "," + strat.Grouping
		if len(strat.CommonFiles) > 0 {
			name += ",common"
		}
		t.Run(name, func(t *testing.T) {
			groups, err := strat.Groups(cat)
			if err != nil {
				t.Fatal(err)
			}
			var want []group
			for _, g := range groups {
				var names []string
				for _, f := range g.Files {
					names = append(names, f.Name)
				}
				want = append(want, group{g.Index, names})
			}
			var mu sync.Mutex
			var got []group
			record := FuncProgram(func(_ context.Context, task Task) (string, error) {
				mu.Lock()
				got = append(got, group{task.GroupIndex, slices.Clone(task.Inputs)})
				mu.Unlock()
				return "ok", nil
			})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			report, err := Run(ctx, RunConfig{Strategy: strat, Dataset: ds, Program: record, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(got, func(a, b group) int { return a.index - b.index })
			if !slices.EqualFunc(got, want, func(a, b group) bool { return a.index == b.index && slices.Equal(a.inputs, b.inputs) }) {
				t.Fatalf("Run's program saw %v, Strategy.Groups gives %v", got, want)
			}
			sim, err := Simulate(SimConfig{Strategy: strat, Dataset: ds, ComputeSec: 0.01, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if report.Groups != len(want) || sim.Succeeded+sim.Abandoned != report.Groups {
				t.Fatalf("Run reports %d groups, Simulate settles %d+%d, Strategy.Groups gives %d",
					report.Groups, sim.Succeeded, sim.Abandoned, len(want))
			}
		})
	}
}
