package experiments

import (
	"testing"

	"frieda/internal/simrun"
)

func TestChunkWorkloadPreservesTotals(t *testing.T) {
	wl := ALSWorkload(0.05)
	micro := ChunkWorkload(wl, 8)
	if len(micro.Tasks) != 8*len(wl.Tasks) {
		t.Fatalf("chunked to %d tasks, want %d", len(micro.Tasks), 8*len(wl.Tasks))
	}
	sum := func(w simrun.Workload) (compute float64, bytes int64) {
		for _, task := range w.Tasks {
			compute += task.ComputeSec
			for _, f := range task.Files {
				bytes += f.Size
			}
		}
		return
	}
	c0, b0 := sum(wl)
	c1, b1 := sum(micro)
	if b1 != b0 {
		t.Fatalf("chunking changed total bytes: %d -> %d", b0, b1)
	}
	if diff := c1 - c0; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("chunking changed total compute: %g -> %g", c0, c1)
	}
	// k<=1 is the identity.
	if n := len(ChunkWorkload(wl, 1).Tasks); n != len(wl.Tasks) {
		t.Fatalf("k=1 chunking changed task count to %d", n)
	}
}

// TestAblationCtrlPlaneSpeedup asserts the headline: template replay cuts
// control-plane seconds by at least 10x at fine granularity (the cached
// decision rate is ~50x the slow path; misses only happen on invalidation
// events). Templates always re-derive every hit, so every counted hit was
// verified bit-identical against the slow path.
func TestAblationCtrlPlaneSpeedup(t *testing.T) {
	rows, err := AblationCtrlPlane("ALS", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	last := rows[len(rows)-1] // finest granularity
	if s := last.Series["ctrl_speedup"]; s < 10 {
		t.Fatalf("ctrl_speedup = %.1f at chunk %g, want >= 10", s, last.Param)
	}
	if last.Series["tmpl_on_hits"] == 0 {
		t.Fatal("no template hits recorded")
	}
	if m := last.Series["tmpl_on_misses"]; m == 0 || m > 16 {
		t.Fatalf("template misses = %g, want small nonzero", m)
	}
	// Templates must not change the schedule materially: the decision cost
	// model prices hits cheaper, so makespan can only improve or stay put
	// (within the collapsed decision time).
	for _, row := range rows {
		off := row.Series["tmpl_off_makespan_s"]
		on := row.Series["tmpl_on_makespan_s"]
		if on > off+off*0.05 {
			t.Fatalf("chunk %g: templates slowed the run: %.2fs -> %.2fs", row.Param, off, on)
		}
	}
}
