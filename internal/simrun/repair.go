package simrun

import (
	"fmt"
	"sort"

	"frieda/internal/catalog"
	"frieda/internal/netsim"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
)

// repairManager is the replication manager: it scans catalog.Replicas for
// files below the target replication factor — on a virtual-time ticker and
// immediately after every worker or disk death — and schedules background
// repair copies as real netsim flows, so repair traffic contends with task
// transfers on the same links. MaxConcurrentRepairs is the budget knob that
// keeps repair below foreground work. Created by Runner.Start when
// Durability.RF > 1.
type repairManager struct {
	r      *Runner
	ticker sim.EventRef
	// tickFn is the pre-bound ticker callback, created once so rearming the
	// scan ticker allocates no per-tick closure.
	tickFn func()
	// active maps file name to its in-flight repair job; its size is the
	// concurrency budget in use.
	active  map[string]*repairJob
	stopped bool
	// visitFn is visit pre-bound, so a scan allocates no closure; scanning
	// is set while a walk is on the stack.
	visitFn  func(string) bool
	scanning bool
}

// repairJob is one in-flight repair copy.
type repairJob struct {
	file string
	src  *simWorker // nil when the master is the source
	dst  *simWorker
	flow *netsim.Flow
	span *obs.Span
	lane int
	// anStart is the job's attribution node (cfg.Attrib only); the landed
	// copy chains from it so foreground transfers sourced off the new
	// replica can blame the repair that created it.
	anStart attrib.NodeID
}

func newRepairManager(r *Runner) *repairManager {
	m := &repairManager{r: r, active: make(map[string]*repairJob)}
	m.visitFn = m.visit
	m.armTicker()
	return m
}

// activeFiles lists the files of the in-flight repairs in name order, the
// order every walk over them takes.
func (m *repairManager) activeFiles() []string {
	files := make([]string, 0, len(m.active))
	for f := range m.active {
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}

// goodputBps sums the current fair rates of the active repair flows — the
// repair-goodput gauge.
func (m *repairManager) goodputBps() float64 {
	var sum float64
	for _, f := range m.activeFiles() {
		if fl := m.active[f].flow; fl != nil {
			sum += fl.Rate()
		}
	}
	return sum
}

func (m *repairManager) armTicker() {
	if m.tickFn == nil {
		m.tickFn = func() {
			m.scan()
			if !m.stopped {
				m.armTicker()
			}
		}
	}
	m.ticker = m.r.eng.Schedule(sim.Duration(m.r.cfg.Durability.ScanPeriodSec), m.tickFn)
}

// stop disarms the ticker and cancels in-flight repairs so an idle engine
// can drain once the run is over. Partial deliveries of cancelled repairs
// still count toward RepairBytes.
func (m *repairManager) stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	m.ticker.Cancel()
	m.ticker = sim.EventRef{}
	for _, f := range m.activeFiles() {
		m.abort(m.active[f], "stopped")
	}
}

// abort cancels a job's flow (Network.Cancel is silent, so cleanup is
// explicit here) and accounts the bytes it had delivered.
func (m *repairManager) abort(job *repairJob, outcome string) {
	delete(m.active, job.file)
	if job.flow != nil {
		delivered := job.flow.Delivered()
		m.r.cluster.Network().Cancel(job.flow)
		job.flow = nil
		m.r.res.RepairBytes += delivered
	}
	m.r.mRepairsFailed.Inc()
	m.endSpan(job, outcome)
}

func (m *repairManager) endSpan(job *repairJob, outcome string) {
	if job.span == nil {
		return
	}
	job.span.End(obs.Args{"outcome": outcome})
	job.span = nil
	releaseLane(job.dst.xferLanes, job.lane)
}

// onWorkerDied cancels repairs that the dead worker was sourcing or
// receiving, then rescans: the death may have pushed more files below
// target.
func (m *repairManager) onWorkerDied(w *simWorker) {
	if m.stopped {
		return
	}
	for _, f := range m.activeFiles() {
		if job := m.active[f]; job.src == w || job.dst == w {
			m.abort(job, "worker-died")
		}
	}
	m.scan()
}

// scan walks the replica map's under-replication index in place, in name
// order, declares files with no remaining source permanently lost, and
// starts repair copies up to the concurrency budget. It costs the files it
// skips plus the repairs it starts, not the size of the catalogue.
func (m *repairManager) scan() {
	if m.stopped {
		return
	}
	r := m.r
	if r.mf.deferring() {
		// No control plane to command repairs; recovery rescans.
		return
	}
	if m.scanning {
		// visit mutates m.active and the index under one cursor; a nested
		// scan (a Transfer completing synchronously) would start repairs
		// the outer walk then double-counts against the budget.
		panic("simrun: repair scan re-entered")
	}
	m.scanning = true
	r.replicas.WalkUnder(r.cfg.Durability.RF, m.visitFn)
	m.scanning = false
}

// visit is scan's per-file step; false ends the walk (budget full).
// markFileLost forgets the file under the walk's cursor, which WalkUnder
// tolerates: lost declarations and repair starts must interleave in name
// order, as journal replay and the goldens observe them.
func (m *repairManager) visit(f string) bool {
	r := m.r
	if f == commonFile || r.lostFiles[f] {
		return true
	}
	if _, busy := m.active[f]; busy {
		return true
	}
	if !r.sourceExists(f) {
		r.markFileLost(f)
		return true
	}
	if len(m.active) >= r.cfg.Durability.MaxConcurrentRepairs {
		return false
	}
	m.start(f)
	return true
}

// start launches one repair copy of the file: the best holder (bestHolder;
// the master when no worker holds it and it is not evacuated) to the live,
// ready worker without a copy that carries the fewest active downlink
// flows. No-op when every eligible worker already holds the file.
func (m *repairManager) start(f string) {
	r := m.r
	size, ok := r.fileSize[f]
	if !ok {
		return // not a workload file (defensive; replicas only hold those)
	}
	src := r.bestHolder([]string{f}, nil, nil)
	srcVM := r.master
	if src != nil {
		srcVM = src.vm
	} else if r.evacuated[f] {
		return // no live holder and the master dropped it; scan will declare loss
	}
	var dst *simWorker
	for _, o := range r.workers {
		if o.dead || o.draining || !o.ready || o.has[f] || o.vm.Host().Down().Failed() {
			continue
		}
		if dst == nil || o.vm.Host().Down().ActiveFlows() < dst.vm.Host().Down().ActiveFlows() {
			dst = o
		}
	}
	if dst == nil {
		return // every live worker already holds (or is fetching) the file
	}
	job := &repairJob{file: f, src: src, dst: dst}
	if ab := r.cfg.Attrib; ab.Enabled() {
		// Repairs are triggered by scans, not the scheduling chain; anchor
		// the job at the run start so the walk terminates cleanly and the
		// pre-trigger lead stays unattributed.
		job.anStart = ab.After(r.anStart, attrib.Unattributed, "repair-start", f)
	}
	m.active[f] = job
	if tr := r.cfg.Tracer; tr.Enabled() {
		job.lane = claimLane(&dst.xferLanes)
		job.span = tr.Begin(fmt.Sprintf("%s/net%d", dst.name, job.lane), "repair",
			"repair "+f, obs.Args{"src": srcVM.Name(), "bytes": size})
	}
	// The job stays in m.active until the copy has fully landed (flow
	// delivered AND disk write charged): an active job counts as a
	// surviving source in sourceExists, because the bytes in flight land
	// even if the original replica vanishes after they left.
	job.flow = r.cluster.Transfer(srcVM, dst.vm, size, func(sim.Time) {
		job.flow = nil
		if m.stopped || m.active[f] != job {
			return
		}
		r.res.RepairBytes += size
		if dst.dead {
			delete(m.active, f)
			m.endSpan(job, "worker-died")
			m.r.mRepairsFailed.Inc()
			return
		}
		m.endSpan(job, "ok")
		if ab := r.cfg.Attrib; ab.Enabled() {
			r.anCause = ab.After(job.anStart, attrib.Repair, "repair-copy", f)
		}
		r.chargeDiskWrite(dst, size, func() {
			if m.stopped || m.active[f] != job {
				return
			}
			delete(m.active, f)
			if dst.dead {
				m.r.mRepairsFailed.Inc()
				return
			}
			dst.setHas(f)
			landed := func() {
				r.repAdd(f, dst.name)
				if r.repairNode != nil {
					r.repairNode[f+"\x00"+dst.name] = r.anCause
				}
				r.res.RepairsCompleted++
				// Keep draining: the file may still be below target, and the
				// budget slot just freed.
				m.scan()
			}
			if r.mf.deferring() {
				// The copy physically landed; the master learns of it on
				// recovery.
				r.mf.enqueue(landed)
				return
			}
			landed()
		})
	})
	job.flow.OnInterrupt(func(delivered float64, _ sim.Time) {
		job.flow = nil
		if m.active[f] != job {
			return
		}
		delete(m.active, f)
		r.res.RepairBytes += delivered
		r.mRepairsFailed.Inc()
		m.endSpan(job, "interrupted")
		// The ticker retries; immediate retry would hammer a faulted link.
	})
}

// sourceExists reports whether any copy of the file survives: a live worker
// replica, the master when the file was never evacuated, or an in-flight
// repair copy — bytes already travelling land on their destination even if
// the replica they were read from vanishes meanwhile, so declaring the file
// lost while a repair is active would be premature.
func (r *Runner) sourceExists(f string) bool {
	if !r.evacuated[f] {
		return true
	}
	if r.replicas.Count(f) > 0 {
		return true
	}
	if r.repair != nil && r.repair.active[f] != nil {
		return true
	}
	return false
}

// markFileLost declares a file permanently lost: every replica is gone and
// the master no longer holds it. The file leaves the repair scan; tasks
// needing it fail their attempts until retries exhaust.
func (r *Runner) markFileLost(f string) {
	if r.lostFiles == nil || r.lostFiles[f] {
		return
	}
	r.lostFiles[f] = true
	r.res.FilesLost++
	r.replicas.Forget(f)
	r.mfRecord(catalog.Record{Op: catalog.OpLoss, File: f})
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant("master", "fault", "file-lost", obs.Args{"file": f})
	}
}

// markStaged records evacuation: with EvacuateSource, the master drops a
// file once its first copy lands on a worker.
func (r *Runner) markStaged(f string) {
	d := r.cfg.Durability
	if d == nil || !d.EvacuateSource || f == commonFile || r.evacuated[f] {
		return
	}
	r.evacuated[f] = true
	r.ctrlInvalidate() // source set changed: templates re-derive
	r.mfRecord(catalog.Record{Op: catalog.OpEvacuate, File: f})
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant("master", "durability", "evacuated", obs.Args{"file": f})
	}
	// The file just became under-replicated (one worker copy, no master
	// copy): repair immediately instead of waiting out the ticker, keeping
	// the loss window to one repair-transfer time.
	if r.repair != nil {
		r.repair.scan()
	}
}

// diskDied handles a local-disk death on a live worker: every byte the
// worker held is gone, but the machine keeps running. Resident file
// knowledge and replica entries are dropped (files left without any copy
// are declared lost), the common dataset is re-staged, and the repair
// manager rescans. In-flight computes keep running — their inputs are
// already in memory — and in-flight fetches land on the fresh media.
func (r *Runner) diskDied(w *simWorker) {
	if w.dead || r.finished {
		return
	}
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant(w.name, "fault", "disk-died", nil)
	}
	files := make([]string, 0, len(w.has))
	for f := range w.has {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		delete(w.has, f)
	}
	if r.mf.deferring() {
		// The bytes are physically gone now; the master reacts on recovery.
		r.mf.enqueue(func() { r.diskDiedMaster(w, files) })
		return
	}
	r.diskDiedMaster(w, files)
}

// diskDiedMaster is the control-plane half of a disk death: drop the
// worker's replica entries, declare unreachable files lost, re-stage the
// common dataset and rescan. Split from diskDied so a master outage can
// defer it while the byte loss itself stays immediate.
func (r *Runner) diskDiedMaster(w *simWorker, files []string) {
	for _, f := range files {
		r.repRemove(f, w.name)
	}
	// The common dataset lives in the replica map only (stageCommon marks
	// readiness, not residence), so check it there.
	lostCommon := r.replicas.Has(commonFile, w.name)
	if lostCommon {
		r.repRemove(commonFile, w.name)
	}
	for _, f := range files {
		if f != commonFile && !r.sourceExists(f) && r.replicas.Count(f) == 0 {
			r.markFileLost(f)
		}
	}
	if lostCommon && !w.dead {
		w.ready = false
		r.stageCommon(w, func() { r.admit(w) })
	}
	if r.repair != nil {
		r.repair.scan()
	}
}
