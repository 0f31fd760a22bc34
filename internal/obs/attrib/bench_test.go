package attrib

import (
	"testing"

	"frieda/internal/sim"
)

// BenchmarkAttribRecorder measures edge emission on the hot shape simrun
// uses: one After (node + edge) per completion. The slice-backed node and
// edge stores with intrusive incoming lists keep this at ≤2 allocs/op
// amortised (node append + edge append; both amortise to below one each,
// and the label is a pre-built constant as at real emission sites).
func BenchmarkAttribRecorder(b *testing.B) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	prev := r.At("run-start")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev = r.After(prev, NetworkTransfer, "xfer-done", "link")
	}
}

// BenchmarkAttribSolve measures the O(V+E) walk on a 100k-node chain.
func BenchmarkAttribSolve(b *testing.B) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	start := r.NodeAt(0, "run-start")
	prev := start
	for i := 0; i < 100_000; i++ {
		n := r.NodeAt(sim.Time(i+1), "step")
		r.Edge(prev, n, Compute, "")
		prev = n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := r.Solve(start, prev); rep == nil {
			b.Fatal("nil report")
		}
	}
}

// TestAttribRecorderAllocBudget enforces the ≤2 allocs/edge target in the
// ordinary test run, so a regression fails CI without running benchmarks.
func TestAttribRecorderAllocBudget(t *testing.T) {
	res := testing.Benchmark(BenchmarkAttribRecorder)
	if a := res.AllocsPerOp(); a > 2 {
		t.Fatalf("edge emission costs %d allocs/op, budget is 2", a)
	}
}
