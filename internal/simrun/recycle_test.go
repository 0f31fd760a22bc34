package simrun

import (
	"runtime"
	"testing"
	"unsafe"

	"frieda/internal/cloud"
	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/strategy"
)

// A run takes back its flows, stage-ins and task attempts as their use
// ends, so it holds as many of each as were in use at once, and a task more
// costs the run none of them. The real-time ALS cell of Fig. 6 is run at 128
// tasks and at four times that. The bytes each of the extra 384 tasks
// allocates, 269.2 on amd64, are the run's per-task state (completions,
// ledger, file ids, replica entries); with Arena.Free disabled they read
// 823.8. A record kind that stops being taken back adds its size to them
// (an attempt is 176 B, a flow 184, a stage-in 248), so the bound is the
// measured figure plus half the smallest.
func TestRecordsBoundedByConcurrency(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	bytes := func(tasks int) uint64 {
		eng := sim.NewEngine()
		cluster, vms := cloud.Default4VMCluster(eng, 1)
		wl := Workload{Name: "ALS", Tasks: alsTasks(tasks)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewRunner(cluster, vms[0], Config{Strategy: strategy.RealTimeRemote, ModelDiskIO: true}, wl)
		if err != nil {
			t.Fatal(err)
		}
		r.AddWorkers(vms[1:])
		res, err := r.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Succeeded != tasks {
			t.Fatalf("%d of %d tasks succeeded", res.Succeeded, tasks)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytes(128), bytes(512)
	perTask := (float64(large) - float64(small)) / (512 - 128)
	limit := 269.2 + float64(min(unsafe.Sizeof(taskAttempt{}), unsafe.Sizeof(netsim.Flow{}), unsafe.Sizeof(stageIn{})))/2
	t.Logf("%d B at 128 tasks, %d B at 512: %.1f B per extra task (bound %.0f)", small, large, perTask, limit)
	if perTask > limit {
		t.Fatalf("each task past 128 allocates %.1f B, want at most %.0f: a flow, stage-in or attempt is no longer taken back", perTask, limit)
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	fn()
}

// Releasing a stage with a pending retry or goodput check, or an attempt
// with a pending compute, panics; so does an event reaching a stage or an
// attempt after its release.
func TestReleaseInvariants(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	r, err := NewRunner(cluster, vms[0], rtRemote(), Workload{Name: "w", Tasks: uniformTasks(1, 1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	w := r.AddWorker(vms[1])

	s := r.newStage(w, 10, stepChain).oneFile(0)
	s.r, s.wake = r, wakeRetry
	s.retry = eng.ScheduleHandler(1, s)
	mustPanic(t, "releasing a stage with a pending retry", func() { r.freeStage(s) })
	s.retry.Cancel()
	s.hedgeCheck = eng.ScheduleHandler(1, sim.Func(func() {}))
	mustPanic(t, "releasing a stage with a pending goodput check", func() { r.freeStage(s) })
	s.hedgeCheck.Cancel()
	r.freeStage(s)
	mustPanic(t, "an event of a released stage", s.Fire)
	mustPanic(t, "a flow of a released stage ending", func() { s.FlowDone(nil) })

	att := r.attemptArena.New()
	att.r, att.w, att.step = r, w, attemptFinish
	att.compute = eng.ScheduleHandler(1, att)
	mustPanic(t, "releasing an attempt with a pending compute", func() { r.freeAttempt(att) })
	att.compute.Cancel()
	r.freeAttempt(att)
	mustPanic(t, "an event of a released attempt", att.Fire)
}
