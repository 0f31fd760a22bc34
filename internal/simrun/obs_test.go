package simrun

import (
	"bytes"
	"testing"

	"frieda/internal/cloud"
	"frieda/internal/obs"
	"frieda/internal/sim"
	"frieda/internal/strategy"
)

// tracedRun executes a moderately busy workload (transfers, retries under a
// failing worker, multicore compute) with a tracer and metrics attached,
// returning the result plus exported trace/metrics bytes. Whether observing
// changes behaviour is TestAttributionChangesNoBehaviour's question.
func tracedRun(t *testing.T) (Result, []byte, []byte) {
	t.Helper()
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 11)
	cfg := Config{
		Strategy:   strategy.Config{Kind: strategy.RealTime, Multicore: true},
		Recover:    true,
		MaxRetries: 3,
	}
	tr := obs.NewTracer(eng, "001 obs-test")
	m := obs.NewMetrics(eng, "001 obs-test", 5)
	cfg.Tracer = tr
	cfg.Metrics = m
	cluster.Network().SetTracer(tr)
	wl := Workload{Name: "obs", Tasks: uniformTasks(30, 0.8, 400_000)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	eng.Schedule(3.5, func() { cluster.Fail(vms[1]) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after Run (metrics ticker leaked?)", eng.Pending())
	}
	var trace, metrics bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsCSV(&metrics, m); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteHistogramsCSV(&metrics, m); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), metrics.Bytes()
}

// TestTracedRunDeterministic checks that two observed runs under the same
// seed export byte-identical trace JSON and metrics CSV.
func TestTracedRunDeterministic(t *testing.T) {
	_, trace1, metrics1 := tracedRun(t)
	_, trace2, metrics2 := tracedRun(t)
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("trace JSON differs between identical seeded runs")
	}
	if !bytes.Equal(metrics1, metrics2) {
		t.Fatal("metrics CSV differs between identical seeded runs")
	}
}

// TestTracedRunRecordsTaxonomy spot-checks that the expected span categories
// and sampled columns actually show up in an instrumented run.
func TestTracedRunRecordsTaxonomy(t *testing.T) {
	_, trace, metrics := tracedRun(t)
	for _, want := range []string{
		`"cat":"task"`, `"cat":"transfer"`, `"cat":"attempt"`, `"cat":"sched"`,
		`"ph":"X"`, `"ph":"i"`, `"ph":"M"`,
	} {
		if !bytes.Contains(trace, []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}
	for _, want := range []string{
		"queue_depth", "busy_slots", "goodput_bps", "tasks_ok", "task_sec",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing column %s", want)
		}
	}
}
