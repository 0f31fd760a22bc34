package simrun

import (
	"math"
	"testing"

	"frieda/internal/fault"
	"frieda/internal/netsim"
)

func TestMasterConfigValidation(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	wl := Workload{Name: "x", Tasks: uniformTasks(1, 1, 1)}
	bad := []Config{
		// Master faults and gray-failure handling are mutually exclusive.
		{Strategy: rtRemote().Strategy,
			Detection: &DetectionConfig{},
			Gray:      &GrayConfig{Speculate: true},
			Master:    &MasterConfig{Journal: true}},
		{Strategy: rtRemote().Strategy, Master: &MasterConfig{Faults: &fault.MasterFaultOptions{MTBFSec: -3}}},
	}
	for i, cfg := range bad {
		if _, err := NewRunner(cluster, vms[0], cfg, wl); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestMasterJournalOnlyMatchesBaseline(t *testing.T) {
	// Journaling without crashes is pure bookkeeping: it must not move a
	// single event. Same makespan, same bytes, and a replayable journal.
	run := func(journal bool) (Result, *Runner) {
		eng, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		if journal {
			cfg.Master = &MasterConfig{Journal: true}
		}
		wl := Workload{Name: "w", Tasks: uniformTasks(12, 2.0, 5_000_000)}
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		return startAndDrain(t, eng, r), r
	}
	base, _ := run(false)
	jr, r := run(true)
	if base.MakespanSec != jr.MakespanSec || base.BytesMoved != jr.BytesMoved ||
		base.Succeeded != jr.Succeeded {
		t.Fatalf("journal-only run diverged from baseline:\nbase %+v\njrnl %+v", base, jr)
	}
	if jr.MasterOutages != 0 || jr.TasksReExecuted != 0 || jr.OrphansReconciled != 0 {
		t.Fatalf("phantom outage activity: %+v", jr)
	}
	if err := r.JournalCheck(); err != nil {
		t.Fatal(err)
	}
	if records, _ := journalCounts(r); records == 0 {
		t.Fatal("journal empty after a full run")
	}
}

// journalCounts reports the journal's record count and its snapshot's entry
// count.
func journalCounts(r *Runner) (records, snapEntries int) {
	m := r.mf()
	records = m.wal.Len()
	if m.snap != nil {
		snapEntries = m.snap.Entries()
	}
	return records, snapEntries
}

func TestOutageDefersCompletionNotCompute(t *testing.T) {
	// The master process crashes mid-compute. The data plane keeps going —
	// the compute finishes on schedule — but its completion report has
	// nobody to receive it: the task settles only after restart + replay.
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Master = &MasterConfig{Journal: true}
	wl := Workload{Name: "one", Tasks: uniformTasks(1, 2.0, 1_000_000)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	// Fetch lands at 0.08 s, compute ends at 2.08 s: crash at 1 s brackets
	// the compute, restart at 4 s.
	eng.At(1, func() { r.mf().onCrash() })
	eng.At(4, func() { r.mf().onRestart() })
	res := startAndDrain(t, eng, r)
	if res.Succeeded != 1 || res.MasterOutages != 1 {
		t.Fatalf("result %+v", res)
	}
	if res.MasterDownSec != 3 {
		t.Fatalf("MasterDownSec = %v, want 3", res.MasterDownSec)
	}
	// Replay prices 2 records (register + replica add) at 1e-4 s each on top
	// of the 5 s restart: the run ends at restart + 5.0002, not at compute
	// end (2.08 s).
	want := 4 + 5.0002
	if math.Abs(res.MakespanSec-want) > 1e-9 {
		t.Fatalf("MakespanSec = %v, want %v", res.MakespanSec, want)
	}
	if math.Abs(res.RecoveryReplaySec-5.0002) > 1e-9 {
		t.Fatalf("RecoveryReplaySec = %v, want 5.0002", res.RecoveryReplaySec)
	}
	if end := res.Completions[0].End; float64(end) != res.MakespanSec {
		t.Fatalf("completion settled at %v, want at recovery (%v)", end, res.MakespanSec)
	}
}

func TestAmnesiaReExecutesWhereJournalDoesNot(t *testing.T) {
	// Crash after roughly half the workload completed. A journaled master
	// replays its ledger and dispatches only the remainder; an amnesiac
	// master forgets the completions and re-runs them — same final success
	// count (the truth map absorbs re-executions), more work, later finish.
	run := func(journal bool) Result {
		eng, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		cfg.Master = &MasterConfig{Journal: journal}
		// Two waves on 2 workers x 4 cores: wave 1 settles ~1.64 s, wave 2
		// is in flight when the crash lands at 2 s.
		wl := Workload{Name: "w", Tasks: uniformTasks(16, 1.0, 1_000_000)}
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:3] {
			r.AddWorker(vm)
		}
		eng.At(2, func() { r.mf().onCrash() })
		eng.At(3, func() { r.mf().onRestart() })
		return startAndDrain(t, eng, r)
	}
	jr, am := run(true), run(false)
	for name, res := range map[string]Result{"journaled": jr, "amnesia": am} {
		if res.Succeeded != 16 || res.MasterOutages != 1 {
			t.Fatalf("%s result %+v", name, res)
		}
		// Exactly one Completion per task regardless of recovery mode: a
		// re-execution restores a belief, it does not complete a task twice.
		seen := make(map[int]int)
		for _, c := range res.Completions {
			seen[c.Task]++
		}
		for task, n := range seen {
			if n != 1 {
				t.Fatalf("%s: task %d completed %d times", name, task, n)
			}
		}
		// Outage re-dispatch must not masquerade as failure retries.
		for _, c := range res.Completions {
			if c.Attempt != 1 {
				t.Fatalf("%s: task %d booked attempt %d, want 1 (no failures injected)", name, c.Task, c.Attempt)
			}
		}
	}
	if jr.TasksReExecuted != 0 || jr.OrphansReconciled != 0 {
		t.Fatalf("journaled master re-ran work: %+v", jr)
	}
	if am.TasksReExecuted == 0 || am.OrphansReconciled == 0 {
		t.Fatalf("amnesiac master re-ran nothing despite losing its ledger: %+v", am)
	}
	if am.MakespanSec <= jr.MakespanSec {
		t.Fatalf("amnesia (%v s) not slower than journaled (%v s)", am.MakespanSec, jr.MakespanSec)
	}
	if jr.ReplayedRecords == 0 {
		t.Fatalf("journaled recovery replayed nothing: %+v", jr)
	}
}

func TestAmnesiaLosesEvacuatedFilesJournalKeepsThem(t *testing.T) {
	// With EvacuateSource the worker pool holds the only copies. The replica
	// map is what makes those copies findable — lose it (amnesia) and
	// evacuated files have no nameable holder, so the repair scan declares
	// them lost. The journal preserves the map exactly.
	run := func(journal bool) Result {
		eng, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		cfg.Recover = true
		cfg.MaxRetries = 3
		cfg.Durability = &DurabilityConfig{
			RF: 2, ScanPeriodSec: 0.5, MaxConcurrentRepairs: 4,
			EvacuateSource: true, Seed: 7,
		}
		cfg.Master = &MasterConfig{Journal: journal}
		// Two waves on 3 workers x 4 cores: wave 1's files are evacuated and
		// repaired by 3.5 s, when the crash lands mid-wave-2.
		wl := Workload{Name: "w", Tasks: uniformTasks(24, 2.0, 1_000_000)}
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		eng.At(3.5, func() { r.mf().onCrash() })
		eng.At(4.5, func() { r.mf().onRestart() })
		return startAndDrain(t, eng, r)
	}
	jr, am := run(true), run(false)
	if jr.FilesLost != 0 || jr.Succeeded != 24 {
		t.Fatalf("journaled master lost files across the outage: %+v", jr)
	}
	if am.FilesLost == 0 {
		t.Fatalf("amnesiac master lost no evacuated files: %+v", am)
	}
}

func TestJournaledMasterChaosHoldsInvariants(t *testing.T) {
	// The kitchen sink: seeded master crash episodes on top of link faults,
	// disk faults and a worker death, with journaled recovery, repair and
	// retries. Every task must finish exactly once, nothing may be lost at
	// RF=2, the journal must replay to the live state, and two equally
	// seeded runs must agree field for field.
	run := func() (Result, *Runner) {
		eng, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		cfg.Recover = true
		cfg.MaxRetries = 5
		// Master keeps source copies (no evacuation): a worker death inside
		// the post-evacuation repair window is legitimate loss even when
		// journaled, and this test is about invariants that must never bend.
		cfg.Durability = &DurabilityConfig{
			RF: 2, ScanPeriodSec: 0.5, MaxConcurrentRepairs: 3,
			Seed: 17,
		}
		cfg.Master = &MasterConfig{
			Journal: true,
			Faults:  &fault.MasterFaultOptions{Seed: 11, MTBFSec: 5, MTTRSec: 2},
		}
		wl := Workload{Name: "w", Tasks: uniformTasks(32, 4.0, 1_000_000)}
		linkInj := cluster.InjectLinkFaults(vms[1:], netsim.FaultOptions{
			Seed: 3, MTBFSec: 15, MTTRSec: 5, DegradeFactor: 0.4,
		})
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		eng.Schedule(6.5, func() { cluster.Fail(vms[1]) })
		res := startAndDrain(t, eng, r)
		linkInj.Stop()
		for eng.Step() {
		}
		return res, r
	}
	a, ra := run()
	b, _ := run()
	if a.MasterOutages == 0 {
		t.Fatalf("fault schedule produced no master crash; tune MTBF: %+v", a)
	}
	if a.Succeeded != 32 || a.FilesLost != 0 {
		t.Fatalf("journaled chaos run did not hold: %+v", a)
	}
	if a.TasksReExecuted != 0 {
		t.Fatalf("journaled master re-executed acknowledged work: %+v", a)
	}
	seen := make(map[int]int)
	for _, c := range a.Completions {
		seen[c.Task]++
	}
	for task, n := range seen {
		if n != 1 {
			t.Fatalf("task %d completed %d times", task, n)
		}
	}
	if err := ra.JournalCheck(); err != nil {
		t.Fatal(err)
	}
	if a.MakespanSec != b.MakespanSec || a.BytesMoved != b.BytesMoved ||
		a.Succeeded != b.Succeeded || a.Abandoned != b.Abandoned ||
		a.MasterOutages != b.MasterOutages || a.MasterDownSec != b.MasterDownSec ||
		a.RecoveryReplaySec != b.RecoveryReplaySec ||
		a.OrphansReconciled != b.OrphansReconciled ||
		a.ReplayedRecords != b.ReplayedRecords ||
		a.TasksReExecuted != b.TasksReExecuted ||
		a.RepairsCompleted != b.RepairsCompleted || a.FilesLost != b.FilesLost {
		t.Fatalf("seeded master-chaos runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestJournalCompactsPastThreshold(t *testing.T) {
	// A journaled run that writes more than compactEvery records folds its
	// journal into a snapshot, and a crash after the fold recovers by
	// replaying snapshot plus journal tail back to the live state.
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Master = &MasterConfig{Journal: true}
	// 1,500 file registrations up front, then a replica landing and a
	// completion per task: ~4,500 records. 3 workers x 4 cores run 12 of the
	// 1 s tasks per second, so the threshold falls near task 1,300 (~108 s)
	// and the run ends near 125 s.
	wl := Workload{Name: "w", Tasks: uniformTasks(1500, 1.0, 1_000)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	snapAtCrash := 0
	eng.At(115, func() {
		_, snapAtCrash = journalCounts(r)
		r.mf().onCrash()
	})
	eng.At(116, func() { r.mf().onRestart() })
	res := startAndDrain(t, eng, r)
	if res.Succeeded != 1500 || res.MasterOutages != 1 {
		t.Fatalf("succeeded %d, outages %d; want 1500, 1", res.Succeeded, res.MasterOutages)
	}
	if snapAtCrash == 0 {
		t.Fatal("journal not compacted before the crash")
	}
	if res.ReplayedRecords < compactEvery {
		t.Fatalf("recovery replayed %d records, want >= %d (snapshot + tail)", res.ReplayedRecords, compactEvery)
	}
	records, snapEntries := journalCounts(r)
	if snapEntries == 0 || records >= compactEvery {
		t.Fatalf("journal stats records=%d snapshot entries=%d, want a snapshot and a tail below %d",
			records, snapEntries, compactEvery)
	}
	if err := r.JournalCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestMasterCrashDuringRecoveryReplays(t *testing.T) {
	// A crash that lands mid-replay wastes the partial replay and starts a
	// fresh outage; recovery must still converge and settle the workload.
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Master = &MasterConfig{Journal: true}
	wl := Workload{Name: "w", Tasks: uniformTasks(4, 1.0, 1_000_000)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:3] {
		r.AddWorker(vm)
	}
	eng.At(1, func() { r.mf().onCrash() })
	eng.At(2, func() { r.mf().onRestart() }) // replay needs 5 s...
	eng.At(3, func() { r.mf().onCrash() })   // ...crash again at 1 s in
	eng.At(5, func() { r.mf().onRestart() })
	res := startAndDrain(t, eng, r)
	if res.Succeeded != 4 || res.MasterOutages != 2 {
		t.Fatalf("result %+v", res)
	}
	// Both the wasted partial replay (1 s) and the full one count.
	if res.RecoveryReplaySec <= recoveryBaseSec {
		t.Fatalf("RecoveryReplaySec = %v, want > %v (partial + full replay)", res.RecoveryReplaySec, recoveryBaseSec)
	}
}
