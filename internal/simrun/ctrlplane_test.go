package simrun

import (
	"math"
	"testing"

	"frieda/internal/cloud"
	"frieda/internal/ctrlplane"
	"frieda/internal/obs/attrib"
	"frieda/internal/partition"
	"frieda/internal/sim"
	"frieda/internal/strategy"
)

// TestCtrlPlaneDecisionCostSerialises prices the control plane exactly: one
// worker, one slot and a window of one, so every task pays decision +
// compute back to back.
func TestCtrlPlaneDecisionCostSerialises(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	cfg := Config{
		Strategy:  strategy.Config{Kind: strategy.RealTime, Prefetch: 1},
		CtrlPlane: &CtrlPlaneConfig{},
	}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(4, 1.0, 0)}
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 4 {
		t.Fatalf("result %+v", res)
	}
	// 4 × (2 ms decision + 1 s compute).
	if math.Abs(res.MakespanSec-4.008) > 1e-9 {
		t.Fatalf("makespan = %v, want 4.008", res.MakespanSec)
	}
	if math.Abs(res.CtrlPlaneDecisionSec-8e-3) > 1e-9 {
		t.Fatalf("CtrlPlaneDecisionSec = %v, want 8e-3", res.CtrlPlaneDecisionSec)
	}
	if res.TemplateHits != 0 || res.TemplateMisses != 0 {
		t.Fatalf("templates off, yet hits/misses = %d/%d", res.TemplateHits, res.TemplateMisses)
	}
}

// TestCtrlPlaneTemplatesCollapseDecisionCost turns templates on: the first
// decision per (worker, class) pays the full derivation, every replay pays
// the hit cost. Each hit is re-derived through the slow path.
func TestCtrlPlaneTemplatesCollapseDecisionCost(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	cfg := Config{
		Strategy:  strategy.Config{Kind: strategy.RealTime, Prefetch: 1},
		CtrlPlane: &CtrlPlaneConfig{Templates: true},
	}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(4, 1.0, 0)}
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 4 {
		t.Fatalf("result %+v", res)
	}
	if res.TemplateMisses != 1 || res.TemplateHits != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", res.TemplateHits, res.TemplateMisses)
	}
	// 1 × (2 ms + 1 s) cold + 3 × (2 ms / 50 + 1 s) replayed.
	if math.Abs(res.MakespanSec-4.00212) > 1e-9 {
		t.Fatalf("makespan = %v, want 4.00212", res.MakespanSec)
	}
	if math.Abs(res.CtrlPlaneDecisionSec-2.12e-3) > 1e-9 {
		t.Fatalf("CtrlPlaneDecisionSec = %v, want 2.12e-3", res.CtrlPlaneDecisionSec)
	}
}

// TestCtrlPlaneCheckedReplayAcrossConfigs is the bit-identical-replay
// property test: every template hit is re-derived through the
// unmodified slow path (head scan + source selection) and panics on any
// divergence, so completing these runs proves templates replay exactly what
// the full decision would have computed — across strategy kinds, prefetch,
// and transfer-heavy workloads.
func TestCtrlPlaneCheckedReplayAcrossConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		wl   func() Workload
	}{
		{"realtime-remote", Config{
			Strategy: strategy.Config{Kind: strategy.RealTime, Locality: strategy.Remote},
		}, func() Workload {
			return Workload{Name: "net", Tasks: uniformTasks(16, 0.5, 2_500_000)}
		}},
		{"realtime-prefetch-batched", Config{
			Strategy: strategy.Config{Kind: strategy.RealTime, Locality: strategy.Remote, Prefetch: 2},
		}, func() Workload {
			return Workload{Name: "net", Tasks: uniformTasks(24, 0.25, 1_000_000)}
		}},
		{"pre-partition-backlog", Config{
			Strategy: strategy.Config{Kind: strategy.PrePartition},
		}, func() Workload {
			return Workload{Name: "pp", Tasks: uniformTasks(12, 0.5, 1_000_000)}
		}},
		{"multicore", Config{
			Strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true},
		}, func() Workload {
			return Workload{Name: "cpu", Tasks: uniformTasks(32, 1.0, 0)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, cluster, vms := newTestCluster(t, 1)
			cfg := tc.cfg
			cfg.CtrlPlane = &CtrlPlaneConfig{Templates: true}
			res := runOn(t, cluster, vms[0], vms[1:], cfg, tc.wl())
			if res.Succeeded != len(tc.wl().Tasks) {
				t.Fatalf("%s: %d/%d succeeded", tc.name, res.Succeeded, len(tc.wl().Tasks))
			}
			if res.TemplateHits == 0 {
				t.Fatalf("%s: no template hits (misses=%d)", tc.name, res.TemplateMisses)
			}
		})
	}
}

// TestCtrlPlaneWorkerDeathInvalidates kills a worker mid-run: the
// generation bump forces the survivors' next decisions back through the slow
// path, so the faulted run shows strictly more misses than the clean one.
func TestCtrlPlaneWorkerDeathInvalidates(t *testing.T) {
	run := func(kill bool) Result {
		eng, cluster, vms := newTestCluster(t, 1)
		cfg := Config{
			Strategy:  strategy.Config{Kind: strategy.RealTime},
			Recover:   true,
			CtrlPlane: &CtrlPlaneConfig{Templates: true},
		}
		wl := Workload{Name: "cpu", Tasks: uniformTasks(16, 1.0, 0)}
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:3] {
			r.AddWorker(vm)
		}
		if kill {
			eng.Schedule(2.5, func() { cluster.Fail(vms[1]) })
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(false)
	faulted := run(true)
	if clean.TemplateMisses != 2 { // one cold miss per worker
		t.Fatalf("clean run misses = %d, want 2", clean.TemplateMisses)
	}
	if faulted.TemplateMisses <= clean.TemplateMisses {
		t.Fatalf("death did not force re-derivation: misses %d (faulted) vs %d (clean)",
			faulted.TemplateMisses, clean.TemplateMisses)
	}
	if faulted.Succeeded != 16 {
		t.Fatalf("faulted run lost work: %+v", faulted)
	}
}

// TestCtrlPlaneElasticJoinInvalidates adds a worker mid-run and expects the
// join to stale the incumbents' templates.
func TestCtrlPlaneElasticJoinInvalidates(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{
		Strategy:  strategy.Config{Kind: strategy.RealTime},
		CtrlPlane: &CtrlPlaneConfig{Templates: true},
	}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(16, 1.0, 0)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	eng.Schedule(3.5, func() { r.AddWorker(vms[2]) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 16 {
		t.Fatalf("result %+v", res)
	}
	// One cold miss for the incumbent, one re-derive after the join bumps
	// the generation, one cold miss for the joiner: at least 3.
	if res.TemplateMisses < 3 {
		t.Fatalf("misses = %d, want >= 3 (cold + joiner + invalidation)", res.TemplateMisses)
	}
}

// TestCtrlPlaneDurabilityStaysSlowPath: durability source selection is
// per-task state, so those decisions must honestly count as misses and
// never hit.
func TestCtrlPlaneDurabilityStaysSlowPath(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	cfg := Config{
		Strategy:   strategy.Config{Kind: strategy.RealTime, Locality: strategy.Remote},
		Durability: &DurabilityConfig{RF: 2},
		CtrlPlane:  &CtrlPlaneConfig{Templates: true},
	}
	wl := Workload{Name: "dur", Tasks: uniformTasks(8, 0.5, 1_000_000)}
	res := runOn(t, cluster, vms[0], vms[1:3], cfg, wl)
	if res.Succeeded != 8 {
		t.Fatalf("result %+v", res)
	}
	if res.TemplateHits != 0 {
		t.Fatalf("durability decisions hit the template cache %d times", res.TemplateHits)
	}
	if res.TemplateMisses != 8 {
		t.Fatalf("misses = %d, want 8 (every decision slow-path)", res.TemplateMisses)
	}
}

// TestCtrlPlaneAttribution: the decision queue becomes first-class blame,
// and the solved report still sums to the makespan.
func TestCtrlPlaneAttribution(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{
		Strategy:  strategy.Config{Kind: strategy.RealTime, Prefetch: 1},
		Attrib:    attrib.NewRecorder(eng),
		CtrlPlane: &CtrlPlaneConfig{},
	}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(4, 1.0, 0)}
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	rep := res.Attribution
	if rep == nil {
		t.Fatal("no attribution report")
	}
	if diff := math.Abs(rep.BlameTotalSec() - res.MakespanSec); diff > 1e-6 {
		t.Fatalf("blame sums to %v, makespan %v", rep.BlameTotalSec(), res.MakespanSec)
	}
	// 4 serialized decisions × 2 ms on the single-slot critical path.
	if cp := rep.Blame[attrib.CtrlPlane]; math.Abs(cp-8e-3) > 1e-9 {
		t.Fatalf("ctrl-plane blame = %v, want 8e-3", cp)
	}
}

// BenchmarkCtrlPlaneDecide compares one full slow-path decision (the
// compute-to-data residency scan over the whole queue — the worst honest
// case of what the master re-derives per task) against one template
// instantiation (generation-checked map probe + head pop).
func BenchmarkCtrlPlaneDecide(b *testing.B) {
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 1)
	// Every pick is requeued at once (Fail under an unbounded budget), so
	// the queue stays 8192 deep.
	cfg := Config{Strategy: strategy.Config{
		Kind: strategy.RealTime, Locality: strategy.Remote, Placement: strategy.ComputeToData,
	}, Recover: true, MaxRetries: math.MaxInt32}
	wl := Workload{Name: "bench", Tasks: uniformTasks(8192, 1, 1<<20)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	w := r.AddWorker(vms[1])
	// A real-time Prefetch of 0 sizes its window from the groups' bytes.
	r.led.Start(cfg.Strategy, len(wl.Tasks), func() []partition.Group { return tasksAsGroups(wl.Tasks) }, nil)
	r.led.Arrive(&w.Worker)

	b.Run("slow-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gi, ok := r.led.Next(&w.Worker)
			if !ok {
				b.Fatal("empty queue")
			}
			r.led.Settle(&w.Worker, gi, 0)
			r.led.Fail(gi)
		}
	})

	// The template's head pop: with every file on the worker, the pick stops
	// at the head.
	for f := range int32(len(r.sizes)) {
		w.Held.Add(f)
	}
	cache := ctrlplane.NewCache()
	key := ctrlplane.Key{Worker: w.name, Class: "queue"}
	cache.Install(key, ctrlplane.Decision{PickHead: true, SourceMaster: true})
	b.Run("template-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := cache.Lookup(key); !ok {
				b.Fatal("unexpected miss")
			}
			gi, _ := r.led.Next(&w.Worker)
			r.led.Settle(&w.Worker, gi, 0)
			r.led.Fail(gi)
		}
	})
}
