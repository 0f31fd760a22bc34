package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"frieda/internal/sim"
)

func TestNilMetricsIsNoOp(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil metrics reports enabled")
	}
	m.Gauge("queue", func() float64 { return 1 })
	h := m.Histogram("sec", []float64{1, 10})
	h.Observe(3)
	m.Sample()
	m.StartSampling()
	m.StopSampling()
}

func TestSamplingTickerStartsAndStops(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMetrics(eng, "run", 5)
	m.Gauge("t", func() float64 { return float64(eng.Now()) })
	eng.Schedule(0, m.StartSampling)
	eng.Schedule(12, m.StopSampling)
	end := eng.Run()
	// Samples at 0, 5, 10 from the ticker plus the final one at 12; the
	// ticker must be disarmed after Stop or Run would never drain.
	if len(m.rows) != 4 {
		t.Fatalf("got %d samples, want 4", len(m.rows))
	}
	if end != 12 {
		t.Fatalf("engine drained at %v, want 12 (ticker still armed?)", end)
	}
	m.StopSampling() // stopping again is a no-op
	if len(m.rows) != 4 {
		t.Fatal("double Stop took an extra sample")
	}
}

func TestColumnsRegisteredMidRunExportEmptyCells(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMetrics(eng, "r", 10)
	m.Gauge("a", func() float64 { return 1 })
	m.Sample()
	m.Gauge("late", func() float64 { return 7 })
	m.Sample()

	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{"run,t_sec,a,late", "r,0,1,", "r,0,1,7"}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestMetricsCSVUnionAcrossRuns(t *testing.T) {
	eng := sim.NewEngine()
	m1 := NewMetrics(eng, "one", 10)
	m1.Gauge("a", func() float64 { return 1 })
	m1.Sample()
	m2 := NewMetrics(eng, "two", 10)
	m2.Gauge("b", func() float64 { return 2 })
	m2.Sample()

	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, m1, m2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{"run,t_sec,a,b", "one,0,1,", "two,0,,2"}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMetrics(eng, "run", 10)
	h := m.Histogram("task_sec", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WriteHistogramsCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	// p50: rank 2.5 falls in the (1,10] bucket holding observation 3 of 5,
	// interpolating to 1 + 9*(2.5-2)/1 = 5.5. p95/p99 land in the overflow
	// bucket and clamp to the highest finite bound.
	want := "run,histogram,le,count,sum,mean,p50,p95,p99\n" +
		"run,task_sec,1,2,,,,,\n" + // 0.5 and the boundary value 1
		"run,task_sec,10,3,,,,,\n" +
		"run,task_sec,100,4,,,,,\n" +
		"run,task_sec,inf,5,,,,,\n" +
		"run,task_sec,total,5,556.5,111.3,5.5,100,100\n"
	if got != want {
		t.Fatalf("histogram CSV:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMetrics(eng, "run", 10)
	h := m.Histogram("sec", []float64{1, 2, 4})
	// 10 observations spread 4/4/2 across the finite buckets.
	for _, v := range []float64{0.2, 0.4, 0.6, 0.8, 1.2, 1.4, 1.6, 1.8, 3, 4} {
		h.Observe(v)
	}
	cases := []struct {
		q, want float64
	}{
		{0, 0},      // bottom of the first bucket
		{0.4, 1},    // exact bucket boundary: rank 4 = cum of bucket one
		{0.5, 1.25}, // one observation into the second bucket
		{0.8, 2},    // boundary again
		{1, 4},      // top of the last finite bucket
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Out-of-range q clamps; nil and empty histograms report zero.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("q outside [0,1] not clamped")
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile not 0")
	}
	if m.Histogram("empty", []float64{1}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

// TestStopSamplingOnTickBoundarySkipsDuplicate: when the run ends exactly on
// a tick boundary the ticker (armed earlier, so delivered first under FIFO
// same-time order) has already sampled the instant; StopSampling must not
// append a second row with the same timestamp.
func TestStopSamplingOnTickBoundarySkipsDuplicate(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMetrics(eng, "run", 5)
	m.Gauge("t", func() float64 { return float64(eng.Now()) })
	eng.Schedule(0, m.StartSampling)
	// Inserting the stop after the ticker re-armed makes the tick fire first
	// at t=5 — the ordering simrun produces when a run completes on a
	// boundary.
	eng.Schedule(1, func() { eng.Schedule(4, m.StopSampling) })
	eng.Run()
	if len(m.rows) != 2 {
		t.Fatalf("got %d rows, want 2 (duplicate final sample?)", len(m.rows))
	}
	for i := 1; i < len(m.rows); i++ {
		if m.rows[i].ts <= m.rows[i-1].ts {
			t.Fatalf("row %d timestamp %v not after %v", i, m.rows[i].ts, m.rows[i-1].ts)
		}
	}
}

func TestHistogramSameNameShared(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMetrics(eng, "run", 10)
	h1 := m.Histogram("sec", []float64{1})
	h2 := m.Histogram("sec", []float64{2, 3})
	if h1 != h2 {
		t.Fatal("re-registering a histogram name returned a different histogram")
	}
}
