package attrib

import (
	"runtime"
	"testing"
	"unsafe"

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

// chain records a chain of n compute edges after a start node and returns
// the recorder and the chain's two ends.
func chain(n int) (r *Recorder, start, end NodeID) {
	r = NewRecorder(sim.NewEngine())
	start = r.NodeAt(0, "run-start")
	end = start
	for i := 0; i < n; i++ {
		next := r.NodeAt(sim.Time(i+1), "step")
		r.Edge(end, next, Compute, "")
		end = next
	}
	return r, start, end
}

// BenchmarkAttribSolve measures the O(V+E) walk on a 100k-node chain.
func BenchmarkAttribSolve(b *testing.B) {
	r, start, end := chain(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := r.Solve(start, end); rep == nil {
			b.Fatal("nil report")
		}
	}
}

// Solve sizes the critical path's slice once: a 100,000-node chain's solve
// allocates at most 1.5× the final slice's bytes. Appended one segment at a
// time it was about 4.9×.
func TestSolveSizesSegmentsOnce(t *testing.T) {
	r, start, end := chain(100_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := r.Solve(start, end)
	runtime.ReadMemStats(&after)
	if len(rep.Segments) != 100_000 {
		t.Fatalf("%d segments, want 100000", len(rep.Segments))
	}
	final := uint64(cap(rep.Segments)) * uint64(unsafe.Sizeof(Segment{}))
	if grew := after.TotalAlloc - before.TotalAlloc; float64(grew) > 1.5*float64(final) {
		t.Fatalf("solve allocated %d B for a %d B segment slice", grew, final)
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
