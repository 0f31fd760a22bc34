// Package simrun executes a (cluster, strategy, workload) triple on the
// discrete-event engine, mirroring the execution-plane logic of
// internal/core on virtual time. It exists because the paper's experiments
// span wall-clock hours (BLAST sequential = 61 200 s): the same strategy
// decisions — staging order, pull-based dispatch, transfer/compute overlap,
// failure isolation — replayed against the flow-level network reproduce the
// published behaviour in milliseconds.
//
// The correspondence with the real runtime is one-to-one: pre-partitioning
// runs a strict transfer phase then a compute phase (Section II-C "the
// phases are sequential"); real-time is a per-slot pull loop whose transfer
// overlaps other slots' computation; no-partitioning stages the full
// dataset everywhere first. Worker deaths isolate the worker and abandon
// (or, with Recover, requeue) its work through the scheduling ledger
// (internal/sched) that core.Master uses too.
//
// This file and transfer.go are the core loop; every optional feature is a
// plug-in in its own file, wired in through the hooks of hooks.go.
package simrun

import (
	"fmt"
	"math/rand"
	"slices"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/partition"
	"frieda/internal/sched"
	"frieda/internal/sim"
	"frieda/internal/storage"
	"frieda/internal/strategy"
)

// commonFile is the name of the replica-map pseudo-file standing for the
// workload's common dataset (the BLAST database).
const commonFile = "__common__"

// connectTimeoutSec is the master's dispatch-failure observation delay: a
// worker whose fetch died asks for more work only this much later, so a
// partitioned-but-undeclared one cannot churn through the whole queue in
// zero virtual time.
const connectTimeoutSec = 15.0

// Runner drives one simulated run. Create with NewRunner, add workers, then
// Start and run the engine.
type Runner struct {
	eng     *sim.Engine
	cluster *cloud.Cluster
	cfg     Config
	wl      Workload

	master  *cloud.VM
	workers []*simWorker
	// byVM is indexed by VM id (dense per cluster); VMs that never joined,
	// the master's among them, have a nil slot.
	byVM []*simWorker

	// led is the scheduling ledger: the shared queue, each task's spent
	// attempts, the terminal count and the rules over them.
	led      *sched.Ledger[*taskAttempt]
	started  bool
	finished bool
	startAt  sim.Time

	// replicas tracks which worker holds which file after staging, the
	// source pool for replica-aware transfer resume.
	replicas *catalog.Replicas
	// The run's files are dense ids, interned once by NewRunner in name
	// order (internFiles), so id order is name order: common is the common
	// dataset's, and task gi's inputs are led.Inputs(gi), parallel to its
	// Files. Ids index the replica map, the workers' disks (Held), sizes and
	// the plug-ins' per-file state; names return only at the edge: the
	// journal, traces and DumpReplicas.
	common int32
	sizes  []float64
	// rng jitters retry backoff; non-nil only with NetFaults (the retry
	// ladder), and consumed only on retries.
	rng *rand.Rand
	// resume is NetFaults.Resume.
	resume bool

	// hooks are the enabled features' plug-ins, in the order of hooks.go.
	hooks []hook
	// The single-owner decisions a plug-in may take over: one dispatch
	// decision (ctrlplane.go), a transfer attempt's source, a task's input
	// fetch, and the two integrity checks (durability.go). The defaults are
	// the published model. A fetch is two halves: fetch starts streaming
	// att.files, missing bytes in all, and fetched continues once the stage
	// that began with att.files[i] is on disk.
	decide    func(w *simWorker) bool
	source    func(w *simWorker, files []int32, n int) *cloud.VM
	fetch     func(att *taskAttempt, missing float64)
	fetched   func(att *taskAttempt, i int)
	corrupt   func(from *cloud.VM, w *simWorker) bool
	readFails func(w *simWorker, att *taskAttempt) bool

	// offline is set while the master process is down or replaying
	// (master.go): worker→master messages wait in held and are delivered in
	// arrival order at recovery.
	offline bool
	held    []func()
	// forgot marks tasks whose completion an amnesiac restart forgot
	// (master.go): re-running one restores the belief, and the historical
	// completion stands.
	forgot map[int]bool
	// gen counts changes to the worker set and the data placement — joins,
	// deaths, drains, evacuations, master recoveries — so the control
	// plane's template cache knows when to re-derive (ctrlplane.go).
	gen int

	// stageFiles picks a worker's files under a staged strategy
	// (startStaged); the ledger holds the barrier.
	stageFiles func(w *simWorker) []int32

	// Phase accounting.
	activeFlows    int
	activeComputes int
	flowSince      sim.Time
	computeSince   sim.Time

	// Admission state (kick, kickAll): workers awaiting this instant's admit
	// pass, whether it must cover every live worker, and whether the pass is
	// queued.
	pendAdmit []*simWorker
	admitAll  bool
	drainOn   bool

	// fileScratch recycles the per-dispatch missing-file slices, so the
	// steady-state pull loop allocates none; a slice abandoned mid-transfer
	// (worker death) is left to the garbage collector.
	fileScratch [][]int32

	// The run's records come from its own arenas: workers live as long as
	// the run, and stage-ins and attempts go back to theirs when their use
	// ends (freeStage, endAttempt), so the run holds as many of them as
	// were ever in use at once.
	workerArena  sim.Arena[simWorker]
	stageArena   sim.Arena[stageIn]
	attemptArena sim.Arena[taskAttempt]

	res  Result
	done func(Result)
}

// simWorker is the simulated execution-plane worker.
type simWorker struct {
	// Worker is the ledger's view; Ready means the common data is staged,
	// its in-flight list covers the transfer→compute pipeline, each task
	// with its attempt (none while the decision server holds its dispatch,
	// ctrlplane.go), and Held is the file ids on its disk or claimed for it.
	sched.Worker[*taskAttempt]
	vm    *cloud.VM
	name  string
	disk  *storage.Volume
	cores sim.Resource
	// speed is the compute-rate factor (1 = provisioned); straggler
	// injection lowers it via SetWorkerSpeed without touching liveness.
	speed  float64
	node   int32 // its id in the replica map
	queued bool  // already in this instant's admit pass
	// afterCommon is what follows its common dataset (stageCommon); chain
	// lists the files a staged strategy streams to it next (startStaged).
	afterCommon afterCommon
	chain       []int32
	// cpuLanes and xferLanes allocate trace tracks so concurrent spans on
	// one worker render as properly nested per-lane timelines (tracer.go).
	cpuLanes  []bool
	xferLanes []bool
}

// taskAttempt is one admitted task on a worker, from its input fetch to its
// finish, and the handler of its own events (Fire): admission to a core,
// the compute's end, and the connection timeout after a failed fetch.
//
// Its use ends once finish has settled it, or once the connection timeout
// after a failed fetch has fired; it then goes back to the runner's arena
// (endAttempt). A race (gray.go) keeps it until the race has settled both
// sides. An attempt whose report was held during a master outage, or one
// torn down by a worker death, a read error or a lost race, is left to the
// garbage collector.
type taskAttempt struct {
	r       *Runner
	w       *simWorker
	task    int
	step    attemptStep // what Fire does next
	stage   *stageIn
	files   []int32 // the inputs the fetch claimed (takeFiles), until put back
	compute sim.EventRef
	started sim.Time
	// Rate-varying compute state: workTotal/workLeft are reference-seconds
	// of work and rateSince timestamps the last speed change, so
	// SetWorkerSpeed can reschedule the finish.
	workTotal, workLeft float64
	rateSince           sim.Time
	// Speculation (gray.go): clone marks a speculation clone, cancelled a
	// race loser; race is the race both sides point at while both run, and
	// claimed lists the files this attempt marked resident at dispatch, so
	// a cancelled attempt can release claims that never landed.
	clone, cancelled bool
	// held is set once a held report (taskDone) names the attempt, and
	// free once the attempt is back in the arena.
	held, free bool
	race       *race
	claimed    []int32
	// span is the open compute span on cpu lane `lane` (tracer.go).
	span *obs.Span
	lane int
	// anStart is the compute-start attribution node (attrib.go): the finish
	// splits elapsed-vs-reference work from it, and a speculation launch
	// chains its detection latency from it.
	anStart attrib.NodeID
}

// NewRunner builds a runner for the cluster. The master VM hosts the data
// source; per the paper it must run close to the input data, so its uplink
// is the staging bottleneck.
func NewRunner(cluster *cloud.Cluster, master *cloud.VM, cfg Config, wl Workload) (*Runner, error) {
	if err := cfg.normalize(len(wl.Tasks)); err != nil {
		return nil, err
	}
	r := &Runner{
		eng:       cluster.Engine(),
		cluster:   cluster,
		cfg:       cfg,
		wl:        wl,
		master:    master,
		led:       sched.NewLedger[*taskAttempt](cfg.Recover, cfg.MaxRetries),
		replicas:  catalog.NewReplicas(),
		corrupt:   func(*cloud.VM, *simWorker) bool { return false },
		readFails: func(*simWorker, *taskAttempt) bool { return false },
	}
	r.internFiles()
	r.replicas.ReserveNodes(len(cluster.VMs())) // the workers usually exist already
	r.decide, r.source, r.fetch, r.fetched = r.dispatchNext, r.sourceFor, r.fetchBundled, r.fetchedBundled
	if nf := cfg.NetFaults; nf != nil {
		r.rng, r.resume = rand.New(rand.NewSource(backoffJitterSeed)), nf.Resume
	}

	r.hooks = r.plugIns()
	r.res.PerWorker = make(map[string]int)
	r.res.Completions = make([]Completion, 0, len(wl.Tasks))
	cluster.OnFailure(func(vm *cloud.VM) {
		if w := r.worker(vm); w != nil {
			r.workerDied(w)
		}
	})
	return r, nil
}

// internFiles gives the common dataset and every distinct task input one
// file id, in name order, registers them with the replica map, and lays out
// each task's input ids, as the ledger's file plan, and every file's size.
// Workloads that list their inputs in ascending name order, each once
// (numbered files, one or two a task), take the ids in listing order; any
// other is sorted, deduplicated and searched.
func (r *Runner) internFiles() {
	tasks := r.wl.Tasks
	at := make([]int32, len(tasks)+1)
	total := 0
	for gi, t := range tasks {
		at[gi] = int32(total)
		total += len(t.Files)
	}
	at[len(tasks)] = int32(total)
	names := make([]string, 0, total+1)
	ascending := true
	for _, t := range tasks {
		for _, f := range t.Files {
			ascending = ascending && (len(names) == 0 || f.Name > names[len(names)-1])
			names = append(names, f.Name)
		}
	}
	ids := make([]int32, total)
	if ascending {
		for k := range ids {
			ids[k] = int32(k)
		}
	} else {
		distinct := slices.Compact(slices.Sorted(slices.Values(names)))
		for k, n := range names {
			i, _ := slices.BinarySearch(distinct, n)
			ids[k] = int32(i)
		}
		names = distinct
	}
	// The common dataset takes its place in name order; a task input of
	// the same name is the same file, as it always was in the replica map.
	i, found := slices.BinarySearch(names, commonFile)
	if !found {
		names = slices.Insert(names, i, commonFile)
		for k, f := range ids {
			if f >= int32(i) {
				ids[k] = f + 1
			}
		}
	}
	r.common = int32(i)
	r.led.Plan(ids, at)
	r.sizes = make([]float64, len(names))
	for gi, t := range tasks {
		for k, f := range t.Files {
			r.sizes[r.led.Inputs(gi)[k]] = float64(f.Size)
		}
	}
	r.replicas.RegisterFiles(names)
}

// worker returns the worker running on vm, or nil if vm never joined. IDs
// are unique only within a cluster, so the slot's VM must be vm itself.
func (r *Runner) worker(vm *cloud.VM) *simWorker {
	if id := vm.ID(); id < len(r.byVM) {
		if w := r.byVM[id]; w != nil && w.vm == vm {
			return w
		}
	}
	return nil
}

// hold defers a worker→master message until the master is back
// (master.go); callers test r.offline first so the closure exists only then.
func (r *Runner) hold(fn func()) { r.held = append(r.held, fn) }

// QueueLen reports tasks awaiting dispatch: the shared queue plus every
// live worker's assigned-but-undispatched backlog, which is queued load too
// (the queue_depth gauge and the autoscaler's QueuedTasks signal).
func (r *Runner) QueueLen() int { return r.led.Pending() }

// SlotStats reports currently busy and total compute slots over live
// workers — the autoscaler's load signal.
func (r *Runner) SlotStats() (busy, total int) {
	for _, w := range r.workers {
		if !w.Live() {
			continue
		}
		busy += w.cores.InUse()
		total += w.cores.Capacity()
	}
	return busy, total
}

// LiveWorkers counts workers that have not died or drained.
func (r *Runner) LiveWorkers() int { return r.led.Live() }

// Terminal reports how many tasks reached a terminal state so far.
func (r *Runner) Terminal() int { return r.led.Terminal() }

// AddWorker registers a compute VM. Before Start it joins the initial set;
// after Start it joins elastically (real-time strategies give it work
// immediately).
func (r *Runner) AddWorker(vm *cloud.VM) *simWorker {
	slots := r.cfg.Strategy.Slots(vm.Type().Cores)
	disk := vm.LocalDisk()
	if r.cfg.Storage != nil {
		disk = storage.MustVolume(vm.Name()+"/scratch", *r.cfg.Storage)
	}
	w := r.workerArena.New()
	*w = simWorker{
		vm:    vm,
		name:  vm.Name(),
		node:  r.replicas.RegisterNode(vm.Name()),
		disk:  disk,
		cores: sim.NewResource(slots),
		speed: 1,
	}
	r.workers = append(r.workers, w)
	if err := r.led.Join(&w.Worker, slots); err != nil {
		panic(fmt.Sprintf("simrun: worker %s: %v", w.name, err))
	}
	if id := vm.ID(); id >= len(r.byVM) {
		r.byVM = append(r.byVM, make([]*simWorker, id+1-len(r.byVM))...)
	}
	r.byVM[vm.ID()] = w
	if r.started {
		register := func() {
			if w.Dead {
				return
			}
			r.gen++
			for _, h := range r.hooks {
				h.join(w)
			}
			r.stageCommon(w, commonKick)
		}
		if r.offline {
			// Registration is a master-side handshake; the VM exists but
			// joins the pool when the control plane is back.
			r.hold(register)
		} else {
			register()
		}
	}
	return w
}

// AddWorkers adds each VM as AddWorker does, with the batch's worker
// records in one chunk.
func (r *Runner) AddWorkers(vms []*cloud.VM) {
	r.workerArena.Reserve(len(vms))
	r.workers = slices.Grow(r.workers, len(vms))
	top := -1
	for _, vm := range vms {
		top = max(top, vm.ID())
	}
	if top >= len(r.byVM) {
		r.byVM = slices.Grow(r.byVM, top+1-len(r.byVM))
	}
	for _, vm := range vms {
		r.AddWorker(vm)
	}
}

// Run executes the whole simulation synchronously and returns the result.
func (r *Runner) Run() (Result, error) {
	var out Result
	finished := false
	if err := r.Start(func(res Result) {
		out = res
		finished = true
	}); err != nil {
		return Result{}, err
	}
	r.eng.Run()
	if !finished {
		return Result{}, fmt.Errorf("simrun: %s deadlocked with %d/%d tasks terminal",
			r.wl.Name, r.led.Terminal(), len(r.wl.Tasks))
	}
	return out, nil
}

// Start begins the run at the current virtual time; done receives the
// result when every task is terminal.
func (r *Runner) Start(done func(Result)) error {
	if len(r.workers) == 0 {
		return fmt.Errorf("simrun: no workers")
	}
	r.done = done
	r.started = true
	r.startAt = r.eng.Now()
	r.pendAdmit = make([]*simWorker, 0, len(r.workers)) // each waits once per pass
	for _, h := range r.hooks {
		h.start()
	}
	// The ledger reads the tasks as groups, when it needs them: for the
	// deal, which goes over the live workers in registration order, or to
	// size a real-time window left to the job.
	var groups []partition.Group
	r.led.Start(r.cfg.Strategy, len(r.wl.Tasks), func() []partition.Group {
		if groups == nil {
			groups = tasksAsGroups(r.wl.Tasks)
		}
		return groups
	}, nil)

	switch r.cfg.Strategy.Kind {
	case strategy.PrePartition:
		r.startStaged(func(w *simWorker) []int32 { return r.filesOf(w.Backlog) })
	case strategy.NoPartition:
		all := r.filesOf(r.led.Queue())
		r.startStaged(func(*simWorker) []int32 { return all })
	case strategy.RealTime:
		r.stageEveryCommon(commonKick)
	}
	return nil
}

// kick requests an admit pass for the worker: it enqueues the worker,
// deduplicated, for this instant's single drain pass.
func (r *Runner) kick(w *simWorker) {
	if !w.queued {
		w.queued = true
		r.pendAdmit = append(r.pendAdmit, w)
	}
	if !r.drainOn {
		r.drainOn = true
		r.eng.ScheduleHandler(0, (*admitDrain)(r))
	}
}

// kickAll requests an admit pass over every live worker — Recover requeues
// and worker deaths put work or capacity back for everyone. Any number of
// same-instant broadcasts collapse into one full pass.
func (r *Runner) kickAll() {
	r.admitAll = true
	if !r.drainOn {
		r.drainOn = true
		r.eng.ScheduleHandler(0, (*admitDrain)(r))
	}
}

// admitDrain is the runner as the handler of its admission pass, so a kick
// queues the pass by a pointer conversion and allocates nothing.
type admitDrain Runner

// Fire is the scheduling pass: one admit sweep over the workers kicked this
// instant (or all live workers after a broadcast), run after every
// already-queued event of the instant has settled (same-instant events are
// FIFO). Kicks from inside the pass extend the pend slice.
func (d *admitDrain) Fire() {
	r := (*Runner)(d)
	r.drainOn = false
	if r.admitAll {
		r.admitAll = false
		for _, w := range r.pendAdmit {
			w.queued = false
		}
		r.pendAdmit = r.pendAdmit[:0]
		for _, o := range r.workers {
			if !o.Dead {
				r.admit(o)
			}
		}
		return
	}
	for i := 0; i < len(r.pendAdmit); i++ {
		w := r.pendAdmit[i]
		w.queued = false
		r.admit(w)
	}
	r.pendAdmit = r.pendAdmit[:0]
}

// admit pulls tasks into the worker's pipeline up to its window, one
// decision at a time, while the ledger hands them out. With the master down
// there is no dispatcher to admit from; recovery ends with a kickAll.
func (r *Runner) admit(w *simWorker) {
	if r.offline {
		return
	}
	for _, h := range r.hooks {
		if !h.admits(w) {
			return
		}
	}
	for r.decide(w) {
	}
}

// dispatchNext is the published dispatch decision: pop the worker's next
// task and send it at once. False when there is no work for w.
func (r *Runner) dispatchNext(w *simWorker) bool {
	gi, ok := r.led.Next(&w.Worker)
	if ok {
		r.fetchAndRun(w, gi)
	}
	return ok
}

// fetchAndRun fetches the task's missing inputs (strategy.Config.Fetches),
// then computes. Returns the attempt so speculation can track its clone.
func (r *Runner) fetchAndRun(w *simWorker, gi int) *taskAttempt {
	att := r.attemptArena.New()
	att.r, att.w, att.task = r, w, gi
	*w.Handle(gi) = att
	for _, h := range r.hooks {
		h.dispatch(w, att)
	}
	var missing float64
	var files []int32
	if r.cfg.Strategy.Fetches() {
		files = r.takeFiles()
		ids := r.led.Inputs(gi)
		for k, f := range r.wl.Tasks[gi].Files {
			// Claim at dispatch, exactly as the real master marks the
			// replica before streaming: a concurrent slot fetching a
			// shared file (one-to-all's pivot, all-to-all pairs) must not
			// fetch it twice.
			if w.Held.Add(ids[k]) {
				missing += float64(f.Size)
				files = append(files, ids[k])
			}
		}
	}
	if missing <= 0 {
		r.putFiles(files)
		r.compute(w, att)
	} else {
		att.files = files
		r.fetch(att, missing)
	}
	return att
}

// fetchBundled streams the attempt's claimed inputs in one flow of missing
// bytes.
func (r *Runner) fetchBundled(att *taskAttempt, missing float64) {
	s := r.newStage(att.w, missing, stepFetch)
	s.files, s.att = att.files, att
	att.stage = r.transfer(s)
}

// fetchedBundled notes the bundle's files as staged once they are on disk,
// then computes.
func (r *Runner) fetchedBundled(att *taskAttempt, _ int) {
	for _, f := range att.files {
		r.noteStaged(f, att.w)
	}
	r.putFiles(att.files)
	r.compute(att.w, att)
}

// fetchLost fails an attempt whose fetch is unrecoverable from input i on:
// un-claim those files so a future attempt re-fetches them. Files before i
// have landed and keep their copies.
func (r *Runner) fetchLost(att *taskAttempt, i int) {
	for _, f := range att.files[i:] {
		att.w.Held.Remove(f)
	}
	r.putFiles(att.files)
	r.fetchFailed(att.w, att)
}

// fetchFailed fails an attempt whose inputs could not be fetched. The worker
// stays (the detector isolates it if it is truly partitioned), but asks for
// more work only after the master's connection timeout.
func (r *Runner) fetchFailed(w *simWorker, att *taskAttempt) {
	r.led.Settle(&w.Worker, att.task, float64(r.eng.Now()))
	r.taskDone(w, att, false)
	att.step = attemptKick
	r.after(r.eng.Now()+connectTimeoutSec, w, delayConnectTimeout, att)
}

// takeFiles pops a recycled file slice (len 0) from the scratch free list,
// or returns nil for append to grow on first use.
func (r *Runner) takeFiles() []int32 {
	if n := len(r.fileScratch); n > 0 {
		s := r.fileScratch[n-1]
		r.fileScratch[n-1] = nil
		r.fileScratch = r.fileScratch[:n-1]
		return s
	}
	return nil
}

// putFiles returns a dispatch's file slice to the free list once nothing
// will touch it again. putFiles(nil) is a no-op.
func (r *Runner) putFiles(s []int32) {
	if s == nil {
		return
	}
	r.fileScratch = append(r.fileScratch, s[:0])
}

// attemptStep is what an attempt's next Fire does.
type attemptStep uint8

const (
	attemptRun    attemptStep = iota // a core admitted it: start the compute (run)
	attemptFinish                    // the compute's work is done (finish)
	attemptKick                      // the connection timeout after a failed fetch: ask for work
)

// Fire is the attempt's event, or its admission to a core (sim.Resource).
func (att *taskAttempt) Fire() {
	if att.free {
		panic(fmt.Sprintf("simrun: event of released attempt of task %d", att.task))
	}
	r, w := att.r, att.w
	switch att.step {
	case attemptRun:
		r.run(w, att)
	case attemptFinish:
		r.finish(w, att)
	case attemptKick:
		r.endAttempt(att)
		r.kick(w)
	}
}

// endAttempt ends att's use (taskAttempt): it goes back to the arena
// unless a held report names it.
func (r *Runner) endAttempt(att *taskAttempt) {
	if !att.held {
		r.freeAttempt(att)
	}
}

// freeAttempt gives att back to the runner's arena. Releasing an attempt
// with a pending compute, a stage or a race panics.
func (r *Runner) freeAttempt(att *taskAttempt) {
	if att.compute.Pending() || att.stage != nil || att.race != nil {
		panic(fmt.Sprintf("simrun: attempt of task %d released while it still runs", att.task))
	}
	att.free = true
	r.attemptArena.Free(att)
}

// compute queues the attempt for a core; run starts it once admitted.
func (r *Runner) compute(w *simWorker, att *taskAttempt) {
	if w.Dead {
		return
	}
	att.step = attemptRun
	w.cores.Acquire(att)
}

// run charges local read time, then runs the task on the core it holds.
func (r *Runner) run(w *simWorker, att *taskAttempt) {
	if w.Dead {
		return
	}
	if att.cancelled {
		// The attempt lost its speculative race while waiting for the
		// core; its slot bookkeeping is already settled.
		w.cores.Release()
		return
	}
	if r.readFails(w, att) {
		return // the read-error path has settled the attempt
	}
	task := &r.wl.Tasks[att.task]
	att.started = r.eng.Now()
	r.onCompute(w, att, runStart)
	dur := sim.Duration(task.ComputeSec)
	if r.cfg.ModelDiskIO {
		dur += w.disk.Read(task.InputBytes())
		if r.wl.CommonBytes > 0 {
			// Database pages stream from disk during the search; charge
			// a single read of the working set once per task.
			dur += w.disk.Read(r.wl.CommonBytes / 100)
		}
	}
	r.computeStarted()
	// The compute runs as workTotal reference-seconds draining at the
	// worker's speed factor; SetWorkerSpeed settles workLeft at the old
	// rate and reschedules the finish at the new one. At speed 1 the /1
	// division is bitwise exact, so unstraggled runs fire the same event
	// at the same instant as the fixed-duration model did.
	att.workTotal = float64(dur)
	att.workLeft = float64(dur)
	att.rateSince = att.started
	att.step = attemptFinish
	att.compute = r.eng.ScheduleHandler(sim.Duration(att.workLeft/w.speed), att)
}

// finish completes the attempt's compute and frees its core.
func (r *Runner) finish(w *simWorker, att *taskAttempt) {
	r.computeEnded()
	att.compute = sim.EventRef{}
	r.onCompute(w, att, runOK)
	r.led.Settle(&w.Worker, att.task, float64(r.eng.Now()))
	w.cores.Release()
	r.taskDone(w, att, true)
	r.endAttempt(att)
	r.kick(w)
}

// freeSlot releases a failed attempt's core and pipeline slot.
func (r *Runner) freeSlot(w *simWorker, att *taskAttempt) {
	w.cores.Release()
	r.led.Settle(&w.Worker, att.task, float64(r.eng.Now()))
}

// taskDone records a terminal (or requeued) outcome. A completion report
// with nobody to receive it is held by the worker until the master is back.
func (r *Runner) taskDone(w *simWorker, att *taskAttempt, ok bool) {
	if r.offline {
		att.held = true
		r.hold(func() { r.taskDone(w, att, ok) })
		return
	}
	if att.race != nil && att.race.settle(att, ok) {
		return // the race's other side owns the task's fate (gray.go)
	}
	if ok {
		r.led.Succeed(att.task)
	} else if r.led.Fail(att.task) {
		// With only draining workers left nobody takes the requeued task;
		// checkDone abandons it instead of leaving the run stalled.
		r.kickAll()
		r.checkDone()
		return
	}
	if r.forgot[att.task] {
		// An amnesia re-execution settled (master.go): the master believes
		// the task terminal again, its historical completion stands — no
		// second Completion — and the rerun is wasted work.
		delete(r.forgot, att.task)
		r.res.TasksReExecuted++
		r.checkDone()
		return
	}
	r.settle(Completion{
		Task: att.task, Worker: w.name, Start: att.started, End: r.eng.Now(),
		OK: ok, Attempt: r.led.Attempts(att.task), Speculative: att.clone,
	})
	r.checkDone()
}

// settle records c as its task's terminal outcome, which the ledger has
// already counted.
func (r *Runner) settle(c Completion) {
	r.res.Completions = append(r.res.Completions, c)
	if c.OK {
		r.res.Succeeded++
		r.res.PerWorker[c.Worker]++
	} else {
		r.res.Abandoned++
	}
	for _, h := range r.hooks {
		h.settle(&r.res.Completions[len(r.res.Completions)-1])
	}
}

// workerDied isolates the worker as core.Master does, in two halves. The
// physical half runs now: the machine is gone, so its flows and computes die
// with it. The master's reaction — dropping replicas, settling the attempts,
// reassigning — is workerGone, which waits for the control plane when that
// is down.
func (r *Runner) workerDied(w *simWorker) {
	if w.Dead {
		return
	}
	// A task still on the decision server has no attempt: the server settles it.
	attempts := slices.DeleteFunc(r.led.Kill(&w.Worker), func(f sched.Flight[*taskAttempt]) bool { return f.Handle == nil })
	for _, h := range r.hooks {
		h.workerDeath(w)
	}
	for _, f := range attempts {
		att := f.Handle
		r.abandonStage(att.stage)
		att.stage = nil
		if att.compute.Pending() {
			att.compute.Cancel()
			r.computeEnded()
		}
		r.onCompute(w, att, runKilled)
	}
	if r.offline {
		r.hold(func() { r.workerGone(w, attempts) })
		return
	}
	r.workerGone(w, attempts)
}

// workerGone is the master half of a worker death: forget its replicas,
// requeue (Recover) or abandon its pipeline and backlog. attempts are the
// in-flight attempts workerDied tore down. It runs with the master up.
func (r *Runner) workerGone(w *simWorker, attempts []sched.Flight[*taskAttempt]) {
	r.gen++
	dropped := r.replicas.DropNodeID(w.node)
	for _, h := range r.hooks {
		h.workerGone(w, dropped)
	}
	for _, f := range attempts {
		r.taskDone(w, f.Handle, false)
	}
	// Then its unstarted backlog goes through the ledger's death rule.
	for _, gi := range r.led.Die(&w.Worker) {
		r.settle(Completion{Task: gi, Worker: w.name, End: r.eng.Now(), Attempt: r.led.Attempts(gi)})
	}
	r.kickAll()
	r.checkDone()
}

// checkDone settles what the ledger's stall rule abandons, then finishes the
// run once every task is terminal. With the master down nobody is watching
// the ledger; recovery re-checks.
func (r *Runner) checkDone() {
	if r.done == nil || r.offline {
		return
	}
	for _, gi := range r.led.Abandon() {
		if r.forgot[gi] {
			delete(r.forgot, gi) // no worker left to re-run it
			continue
		}
		r.settle(Completion{Task: gi, End: r.eng.Now(), Attempt: r.led.Attempts(gi)})
	}
	if !r.led.Finished() {
		return
	}
	done := r.done
	r.done = nil
	r.finished = true
	r.res.MakespanSec = float64(r.eng.Now() - r.startAt)
	for i := len(r.hooks) - 1; i >= 0; i-- {
		r.hooks[i].finish()
	}
	done(r.res)
}

func (r *Runner) flowStarted() {
	if r.activeFlows == 0 {
		r.flowSince = r.eng.Now()
	}
	r.activeFlows++
}

func (r *Runner) flowEnded() {
	r.activeFlows--
	if r.activeFlows == 0 {
		r.res.TransferWallSec += float64(r.eng.Now() - r.flowSince)
	}
}

func (r *Runner) computeStarted() {
	if r.activeComputes == 0 {
		r.computeSince = r.eng.Now()
	}
	r.activeComputes++
}

func (r *Runner) computeEnded() {
	r.activeComputes--
	if r.activeComputes == 0 {
		r.res.ExecWallSec += float64(r.eng.Now() - r.computeSince)
	}
}
