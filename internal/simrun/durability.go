package simrun

import (
	"fmt"
	"math/rand"
	"slices"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/netsim"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
	"frieda/internal/storage"
)

// durabilityHook turns the replica map into a managed store
// (Config.Durability; DESIGN.md, "Durability"): verified transfers, failing
// disk reads, evacuation, loss declaration and, with RF > 1, a replication
// manager that scans for files below target — on a ticker and after every
// worker or disk death — and repairs them with real netsim flows, at most
// MaxConcurrentRepairs at a time. It takes over the source rule and the
// input fetch, and owns the integrity draws.
type durabilityHook struct {
	nopHook
	r   *Runner
	cfg DurabilityConfig
	an  *attribHook
	mf  *masterHook // journals control-plane mutations; nil for an immortal master
	tr  *obs.Tracer
	// rng draws corruption and read-error outcomes; consumed only when a
	// fault condition is present.
	rng *rand.Rand
	// evacuated marks files the master no longer holds (EvacuateSource),
	// lost files declared permanently lost; both are indexed by file id.
	evacuated, lost []bool
	repairsFailed   int

	// The replication manager. active holds each file's in-flight repair
	// job by file id, and repairs counts them against the concurrency
	// budget; active is nil when RF <= 1, which leaves the manager off.
	// tickFn and visitFn are the ticker and the scan step pre-bound, so
	// neither a tick nor a scan allocates a closure; scanning is set while a
	// walk is on the stack.
	active   []*repairJob
	repairs  int
	jobs     sim.Arena[repairJob] // where the repair jobs come from, and go back (freeJob)
	ticker   sim.EventRef
	tickFn   func()
	visitFn  func(int32) bool
	stopped  bool
	scanning bool
}

func newDurability(r *Runner, an *attribHook) *durabilityHook {
	d := &durabilityHook{
		r: r, cfg: *r.cfg.Durability, an: an, tr: r.cfg.Tracer,
		rng:       rand.New(rand.NewSource(r.cfg.Durability.Seed)),
		evacuated: make([]bool, len(r.sizes)),
		lost:      make([]bool, len(r.sizes)),
	}
	if d.cfg.ScanPeriodSec <= 0 {
		d.cfg.ScanPeriodSec = 60
	}
	if d.cfg.MaxConcurrentRepairs <= 0 {
		d.cfg.MaxConcurrentRepairs = 2
	}
	r.source, r.fetch, r.fetched, r.corrupt, r.readFails = d.source, d.fetch, d.fetched, d.corrupt, d.readFails
	r.cluster.OnDiskFailure(func(vm *cloud.VM, _ *storage.Volume) {
		if w := r.worker(vm); w != nil {
			d.diskDied(w)
		}
	})
	if m := r.cfg.Metrics; m.Enabled() {
		m.Gauge("under_replicated", func() float64 { return float64(r.replicas.UnderCount(max(d.cfg.RF, 1))) })
		m.Gauge("active_repairs", func() float64 { return float64(d.repairs) })
		m.Gauge("files_lost", func() float64 { return float64(r.res.FilesLost) })
		m.Gauge("repair_goodput_bps", d.goodputBps)
		countGauge(m, "corruptions_detected", &r.res.CorruptionsDetected)
		countGauge(m, "files_lost_total", &r.res.FilesLost)
		countGauge(m, "repairs_ok", &r.res.RepairsCompleted)
		countGauge(m, "repairs_failed", &d.repairsFailed)
		m.Gauge("repair_bytes", func() float64 { return r.res.RepairBytes })
	}
	return d
}

// start turns the replication manager on when RF > 1.
func (d *durabilityHook) start() {
	if d.cfg.RF <= 1 {
		return
	}
	period := sim.Duration(d.cfg.ScanPeriodSec)
	d.active = make([]*repairJob, len(d.r.sizes))
	d.visitFn = d.visit
	d.tickFn = func() {
		d.scan()
		if !d.stopped {
			d.ticker = d.r.eng.Schedule(period, d.tickFn)
		}
	}
	d.ticker = d.r.eng.Schedule(period, d.tickFn)
}

// source is the source rule with durability: the master is eligible only
// while it still holds every requested file (EvacuateSource drops files once
// staged) and is the canonical first-attempt source then; otherwise the
// best holder (bestHolder), else the master if it still holds the files,
// else nil — every copy is gone, and the transfer is lost without touching
// the network.
func (d *durabilityHook) source(w *simWorker, files []int32, n int) *cloud.VM {
	r := d.r
	holds := d.masterHolds(files)
	if n == 1 && holds {
		return r.master
	}
	if o := r.bestHolder(files, w, nil); o != nil {
		return o.vm
	}
	if holds {
		return r.master
	}
	return nil
}

// masterHolds reports whether the master still holds every named file.
func (d *durabilityHook) masterHolds(files []int32) bool {
	for _, f := range files {
		if d.evacuated[f] {
			return false
		}
	}
	return true
}

// fetch stages the attempt's claimed inputs one flow at a time: with
// replicas spread by the repair manager, a task's files may live on
// different nodes, so each transfer uses its own best source. Files already
// landed keep their on-disk copies when a later file in the chain fails;
// only the not-yet-fetched claims are released.
func (d *durabilityHook) fetch(att *taskAttempt, _ float64) { d.fetchFrom(att, 0) }

// fetchFrom stages att.files[i:], the next file first, then computes.
func (d *durabilityHook) fetchFrom(att *taskAttempt, i int) {
	r, w, files := d.r, att.w, att.files
	if w.Dead {
		return
	}
	if i >= len(files) {
		r.putFiles(files)
		r.compute(w, att)
		return
	}
	f := files[i]
	if d.lost[f] {
		r.fetchLost(att, i)
		return
	}
	s := r.newStage(w, r.sizes[f], stepFetch)
	s.att, s.at = att, i
	att.stage = r.transfer(s.oneFile(f))
}

// fetched goes on to the attempt's next file once file i is on disk.
func (d *durabilityHook) fetched(att *taskAttempt, i int) {
	w, f := att.w, att.files[i]
	if w.Dead {
		return
	}
	// Re-assert the claim: a disk wipe mid-transfer cleared it, and the
	// bytes just landed on the fresh media.
	w.Held.Add(f)
	d.r.noteStaged(f, w)
	d.fetchFrom(att, i+1)
}

// corrupt draws whether a payload arriving at w from `from` is corrupt: only
// across a path with a link running below its provisioned rate at arrival
// time.
func (d *durabilityHook) corrupt(from *cloud.VM, w *simWorker) bool {
	var route [netsim.MaxRoute]*netsim.Link
	return d.cfg.CorruptionRate > 0 &&
		slices.ContainsFunc(d.r.cluster.AppendTransferPath(route[:0], from, w.vm), (*netsim.Link).Degraded) &&
		d.rng.Float64() < d.cfg.CorruptionRate
}

// readFails draws a media read error as att's compute starts (ModelDiskIO
// only) and, on one, handles it in two halves, like a worker death. The
// physical half runs now: the worker's local copies of the task's inputs
// are suspect and dropped, so future attempts re-fetch from surviving
// replicas. readFailedMaster is the master's reaction and runs right after,
// or held behind a control-plane outage — in which case the core frees at
// once, not after the bookkeeping.
func (d *durabilityHook) readFails(w *simWorker, att *taskAttempt) bool {
	r, rate := d.r, w.disk.ReadErrorRate()
	if !r.cfg.ModelDiskIO || rate <= 0 || d.rng.Float64() >= rate {
		return false
	}
	if d.tr.Enabled() {
		d.tr.Instant(w.name, "fault", "read-error", obs.Args{"task": att.task})
	}
	// bad comes off the recycled file slices: read errors recur all run.
	bad := r.takeFiles()
	for _, f := range r.led.Inputs(att.task) {
		if w.Held.Remove(f) {
			bad = append(bad, f)
		}
	}
	if r.offline {
		r.freeSlot(w, att)
		r.hold(func() { d.readFailedMaster(w, att, bad, false) })
	} else {
		d.readFailedMaster(w, att, bad, true)
	}
	return true
}

// readFailedMaster is the master half of a read error: drop the bad
// replicas, declare what has no source left lost, rescan, and fail the
// attempt through the normal retry ladder. free releases the attempt's core
// and slot after the bookkeeping and before the verdict, because
// sim.Resource.Release hands the core to the next waiter synchronously.
func (d *durabilityHook) readFailedMaster(w *simWorker, att *taskAttempt, bad []int32, free bool) {
	r := d.r
	r.res.CorruptionsDetected++
	if ab := d.an.ab; ab.Enabled() {
		d.an.cause = ab.After(d.an.cause, attrib.DiskIO, "read-error", w.name)
	}
	for _, f := range bad {
		d.repRemove(f, w)
	}
	r.putFiles(bad)
	for _, f := range r.led.Inputs(att.task) {
		if !d.sourceExists(f) {
			d.markFileLost(f)
		}
	}
	d.scan()
	if free {
		r.freeSlot(w, att)
	}
	r.taskDone(w, att, false)
	r.kick(w)
}

// workerGone declares lost the files whose last copy died with w, then
// cancels the repairs w was sourcing or receiving and rescans: the death
// may have pushed more files below target.
func (d *durabilityHook) workerGone(w *simWorker, dropped []int32) {
	for _, f := range dropped {
		if f != d.r.common && !d.sourceExists(f) {
			d.markFileLost(f)
		}
	}
	if d.stopped {
		return
	}
	d.eachRepair(func(job *repairJob) {
		if job.src == w || job.dst == w {
			d.abort(job, "worker-died")
		}
	})
	d.scan()
}

// repRemove drops w's replica of file, journaled.
func (d *durabilityHook) repRemove(file int32, w *simWorker) {
	d.r.replicas.RemoveID(file, w.node)
	d.mf.journalFile(catalog.OpReplicaRemove, file, w.name)
}

// eachRepair calls fn for every in-flight repair in file id order, which is
// name order; fn may end the job it is handed.
func (d *durabilityHook) eachRepair(fn func(job *repairJob)) {
	for f := 0; f < len(d.active) && d.repairs > 0; f++ {
		if job := d.active[f]; job != nil {
			fn(job)
		}
	}
}

// retire takes job out of the active set.
func (d *durabilityHook) retire(job *repairJob) {
	d.active[job.file] = nil
	d.repairs--
}

// repairJob is one in-flight repair copy: the owner of its flow and the
// handler of its landing. Its use ends once it is retired with neither its
// flow nor its disk write pending; it then goes back to the arena
// (freeJob). A job is never released while an event or a flow of it is
// pending, so a handler that finds d.active[job.file] != job knows its own
// job was retired: the record cannot have been reused by a newer job of the
// same file.
type repairJob struct {
	d    *durabilityHook
	file int32
	size float64
	src  *simWorker // nil when the master is the source
	dst  *simWorker
	flow *netsim.Flow
	// landing is set while the copy's disk write is pending (Fire), free
	// once the job is back in the arena.
	landing, free bool
	span          *obs.Span
	lane          int
	// anStart is the job's attribution node (attrib.go); the landed
	// copy chains from it so foreground transfers sourced off the new
	// replica can blame the repair that created it.
	anStart attrib.NodeID
}

// goodputBps sums the current fair rates of the active repair flows — the
// repair-goodput gauge. Every walk over the active repairs takes name order.
func (d *durabilityHook) goodputBps() float64 {
	var sum float64
	d.eachRepair(func(job *repairJob) {
		if job.flow != nil {
			sum += job.flow.Rate()
		}
	})
	return sum
}

// finish disarms the ticker and cancels in-flight repairs so an idle
// engine can drain once the run is over. Partial deliveries of cancelled
// repairs still count toward RepairBytes.
func (d *durabilityHook) finish() {
	d.stopped = true
	d.ticker.Cancel()
	d.ticker = sim.EventRef{}
	d.eachRepair(func(job *repairJob) { d.abort(job, "stopped") })
}

// abort cancels a job's flow (Network.Cancel is silent and final: cleanup is
// explicit here, and no report of the flow follows) and accounts the bytes
// it had delivered. A job whose copy is landing is released when the
// landing fires.
func (d *durabilityHook) abort(job *repairJob, outcome string) {
	d.retire(job)
	if job.flow != nil {
		delivered := job.flow.Delivered()
		d.r.cluster.Network().Cancel(job.flow)
		job.flow = nil
		d.r.res.RepairBytes += delivered
	}
	d.repairsFailed++
	d.endSpan(job, outcome)
	if !job.landing {
		d.freeJob(job)
	}
}

// freeJob gives a retired job back to the arena. Releasing a job that is
// still active or still has its flow or disk write pending panics.
func (d *durabilityHook) freeJob(job *repairJob) {
	if job.flow != nil || job.landing || d.active[job.file] == job {
		panic(fmt.Sprintf("simrun: repair of %s released while it still runs", d.r.replicas.FileName(job.file)))
	}
	job.free = true
	d.jobs.Free(job)
}

// mustRun panics when an event or a flow of job reaches it after freeJob.
func (job *repairJob) mustRun() {
	if job.free {
		panic("simrun: event of a released repair job")
	}
}

func (d *durabilityHook) endSpan(job *repairJob, outcome string) {
	if job.span == nil {
		return
	}
	job.span.End(obs.Args{"outcome": outcome})
	job.span = nil
	releaseLane(job.dst.xferLanes, job.lane)
}

// scan walks the replica map's under-replication index in place, in name
// order, declares files with no remaining source permanently lost, and
// starts repair copies up to the concurrency budget. It costs the files it
// skips plus the repairs it starts, not the size of the catalogue. A no-op
// with the manager off, stopped, or no control plane to command repairs
// (recovery rescans).
func (d *durabilityHook) scan() {
	if d.active == nil || d.stopped || d.r.offline {
		return
	}
	if d.scanning {
		// visit mutates d.active and the index under one cursor; a nested
		// scan (a Transfer completing synchronously) would start repairs
		// the outer walk then double-counts against the budget.
		panic("simrun: repair scan re-entered")
	}
	d.scanning = true
	d.r.replicas.WalkUnderID(d.cfg.RF, d.visitFn)
	d.scanning = false
}

// visit is scan's per-file step; false ends the walk (budget full).
// markFileLost forgets the file under the walk's cursor, which WalkUnder
// tolerates: lost declarations and repair starts must interleave in name
// order, as journal replay and the goldens observe them.
func (d *durabilityHook) visit(f int32) bool {
	if f == d.r.common || d.lost[f] || d.active[f] != nil {
		return true // not a workload file, already lost, or already in repair
	}
	if !d.sourceExists(f) {
		d.markFileLost(f)
		return true
	}
	if d.repairs >= d.cfg.MaxConcurrentRepairs {
		return false
	}
	d.startRepair(f)
	return true
}

// startRepair launches one repair copy of the file: the best holder (bestHolder;
// the master when no worker holds it and it is not evacuated) to the live,
// ready worker without a copy that carries the fewest active downlink
// flows. No-op when every eligible worker already holds the file.
func (d *durabilityHook) startRepair(f int32) {
	r := d.r
	size, one := r.sizes[f], [1]int32{f}
	src := r.bestHolder(one[:], nil, nil)
	srcVM := r.master
	if src != nil {
		srcVM = src.vm
	} else if d.evacuated[f] {
		return // no live holder and the master dropped it; scan will declare loss
	}
	var dst *simWorker
	for _, o := range r.workers {
		if !o.Ready || !o.Live() || o.Held.Has(f) || o.vm.Host().Down().Failed() {
			continue
		}
		if dst == nil || o.vm.Host().Down().ActiveFlows() < dst.vm.Host().Down().ActiveFlows() {
			dst = o
		}
	}
	if dst == nil {
		return // every live worker already holds (or is fetching) the file
	}
	job := d.jobs.New()
	job.d, job.file, job.size, job.src, job.dst = d, f, size, src, dst
	if ab := d.an.ab; ab.Enabled() {
		// Repairs are triggered by scans, not the scheduling chain; anchor
		// the job at the run start so the walk terminates cleanly and the
		// pre-trigger lead stays unattributed.
		job.anStart = ab.After(d.an.begin, attrib.Unattributed, "repair-start", r.replicas.FileName(f))
	}
	d.active[f] = job
	d.repairs++
	if tr := d.tr; tr.Enabled() {
		job.lane = claimLane(&dst.xferLanes)
		job.span = tr.Begin(fmt.Sprintf("%s/net%d", dst.name, job.lane), "repair",
			"repair "+r.replicas.FileName(f), obs.Args{"src": srcVM.Name(), "bytes": size})
	}
	// The job stays in d.active until the copy has fully landed (flow
	// delivered AND disk write charged): an active job counts as a
	// surviving source in sourceExists, because the bytes in flight land
	// even if the original replica vanishes after they left.
	job.flow = r.cluster.Transfer(srcVM, dst.vm, size, job)
}

// FlowDone settles the repair copy's flow delivering; the copy lands once
// its disk write is charged (Fire).
func (job *repairJob) FlowDone(*netsim.Flow) {
	job.mustRun()
	d, r := job.d, job.d.r
	job.flow = nil
	if d.stopped || d.active[job.file] != job {
		return
	}
	r.res.RepairBytes += job.size
	if job.dst.Dead {
		d.retire(job)
		d.endSpan(job, "worker-died")
		d.repairsFailed++
		d.freeJob(job)
		return
	}
	d.endSpan(job, "ok")
	if ab := d.an.ab; ab.Enabled() {
		d.an.cause = ab.After(job.anStart, attrib.Repair, "repair-copy", r.replicas.FileName(job.file))
	}
	job.landing = true
	r.chargeDiskWrite(job.dst, job.size, job)
}

// FlowInterrupted fails the repair copy; the ticker retries, as an
// immediate retry would hammer a faulted link.
func (job *repairJob) FlowInterrupted(_ *netsim.Flow, delivered float64) {
	job.mustRun()
	d := job.d
	job.flow = nil
	if d.active[job.file] != job {
		return
	}
	d.retire(job)
	d.r.res.RepairBytes += delivered
	d.repairsFailed++
	d.endSpan(job, "interrupted")
	d.freeJob(job)
}

// Fire lands the repair copy once its disk write is charged.
func (job *repairJob) Fire() {
	job.mustRun()
	d, r := job.d, job.d.r
	job.landing = false
	if d.stopped || d.active[job.file] != job {
		d.freeJob(job) // aborted while landing
		return
	}
	d.retire(job)
	if job.dst.Dead {
		d.repairsFailed++
		d.freeJob(job)
		return
	}
	job.dst.Held.Add(job.file)
	if r.offline {
		// The copy physically landed; the master learns of it on recovery.
		r.hold(job.noted)
		return
	}
	job.noted()
}

// noted is the master's note of a landed repair copy, where the job's use
// ends.
func (job *repairJob) noted() {
	d, r, f, dst := job.d, job.d.r, job.file, job.dst
	d.freeJob(job)
	r.replicas.AddID(f, dst.node)
	d.mf.journalFile(catalog.OpReplicaAdd, f, dst.name)
	d.an.repairLanded(f, dst)
	r.res.RepairsCompleted++
	// Keep draining: the file may still be below target, and the budget
	// slot just freed.
	d.scan()
}

// sourceExists reports whether any copy of the file survives: a live worker
// replica, the master when the file was never evacuated, or an in-flight
// repair copy — bytes already travelling land on their destination even if
// the replica they were read from vanishes meanwhile, so declaring the file
// lost while a repair is active would be premature.
func (d *durabilityHook) sourceExists(f int32) bool {
	return !d.evacuated[f] || d.r.replicas.CountID(f) > 0 || (d.active != nil && d.active[f] != nil)
}

// markFileLost declares a file permanently lost: every replica is gone and
// the master no longer holds it. The file leaves the repair scan; tasks
// needing it fail their attempts until retries exhaust.
func (d *durabilityHook) markFileLost(f int32) {
	if d.lost[f] {
		return
	}
	d.lost[f] = true
	d.r.res.FilesLost++
	d.r.replicas.ForgetID(f)
	d.mf.journalFile(catalog.OpLoss, f, "")
	if d.tr.Enabled() {
		d.tr.Instant("master", "fault", "file-lost", obs.Args{"file": d.r.replicas.FileName(f)})
	}
}

// staged records evacuation: with EvacuateSource, the master drops a file
// once its first copy lands on a worker.
func (d *durabilityHook) staged(f int32, _ *simWorker) {
	if !d.cfg.EvacuateSource || f == d.r.common || d.evacuated[f] {
		return
	}
	d.evacuated[f] = true
	d.r.gen++ // source set changed: templates re-derive
	d.mf.journalFile(catalog.OpEvacuate, f, "")
	if d.tr.Enabled() {
		d.tr.Instant("master", "durability", "evacuated", obs.Args{"file": d.r.replicas.FileName(f)})
	}
	// The file just became under-replicated (one worker copy, no master
	// copy): repair immediately instead of waiting out the ticker, keeping
	// the loss window to one repair-transfer time.
	d.scan()
}

// diskDied handles a local-disk death on a live worker: every byte the
// worker held is gone, but the machine keeps running. Resident file
// knowledge and replica entries are dropped (files left without any copy
// are declared lost), the common dataset is re-staged, and the repair
// manager rescans. In-flight computes keep running — their inputs are
// already in memory — and in-flight fetches land on the fresh media.
func (d *durabilityHook) diskDied(w *simWorker) {
	r := d.r
	if w.Dead || r.finished {
		return
	}
	d.tr.Instant(w.name, "fault", "disk-died", nil)
	files := w.Held.Append(nil) // in id order, which is name order
	w.Held.Clear()
	if r.offline {
		// The bytes are physically gone now; the master reacts on recovery.
		r.hold(func() { d.diskDiedMaster(w, files) })
		return
	}
	d.diskDiedMaster(w, files)
}

// diskDiedMaster is the control-plane half of a disk death: drop the
// worker's replica entries, declare unreachable files lost, re-stage the
// common dataset and rescan. Split from diskDied so a master outage can
// defer it while the byte loss itself stays immediate.
func (d *durabilityHook) diskDiedMaster(w *simWorker, files []int32) {
	r := d.r
	for _, f := range files {
		d.repRemove(f, w)
	}
	// The common dataset lives in the replica map only (stageCommon marks
	// readiness, not residence), so check it there.
	lostCommon := r.replicas.HasID(r.common, w.node)
	if lostCommon {
		d.repRemove(r.common, w)
	}
	for _, f := range files {
		if f != r.common && !d.sourceExists(f) && r.replicas.CountID(f) == 0 {
			d.markFileLost(f)
		}
	}
	if lostCommon && !w.Dead {
		w.Ready = false
		r.stageCommon(w, commonKick)
	}
	d.scan()
}
