package simrun

// Data movement: the staging strategies and the transfer ladder every
// stage-in runs — flows, NetFaults retries with backoff, resume, and the
// source rule.

import (
	"fmt"
	"math"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/netsim"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/partition"
	"frieda/internal/sim"
	"frieda/internal/strategy"
)

// Transfer retry budgets, as the netfail and durability sweeps run them:
// under NetFaults a transfer gets maxTransferAttempts flows with jittered
// exponential backoff between them, and under Durability a corrupt payload
// is refetched at most maxRefetch times. The jitter RNG is consumed only on
// retries, so fault-free runs never draw from it.
const (
	maxTransferAttempts = 6
	maxRefetch          = 3
	backoffSec          = 1
	backoffCapSec       = 30
	backoffJitterSeed   = 13
)

// stageIn is one logical transfer: its payload, what it continues once the
// payload is on disk, the current attempt and its flow, any pending backoff
// retry (so worker death can abandon the whole chain), and the plug-ins'
// per-transfer state. It is the whole record of the transfer: it owns its
// flows (netsim.FlowOwner) and is the handler of its own events (sim.Handler),
// so a transfer allocates the stage and its flows and no closure.
//
// A stage's use ends where its chain goes on without it: in staged, when
// the transfer is lost or its worker is dead, and in landed. There it goes
// back to the runner's arena (freeStage) with no flow, hedge, retry or
// goodput check left, after its chain's next step has been copied out of it
// (files may point into the stage itself). An abandoned stage is left to
// the garbage collector.
type stageIn struct {
	r     *Runner
	w     *simWorker
	files []int32
	bytes float64
	// step says which chain the stage belongs to (staged); att and at
	// locate it there: the attempt whose inputs it fetches, and the index
	// of files[0] in w.chain or att.files.
	step stageStep
	wake stageWake // which wait Fire ends
	att  *taskAttempt
	at   int
	// one backs files for a single-file stage (oneFile).
	one [1]int32
	// startAt timestamps the logical transfer for the duration histogram.
	startAt sim.Time
	// The current attempt: its number, source, payload and flow. last is
	// the flow behind an arrival or interrupt while the hooks hear of it,
	// and nil otherwise (the network takes the flow back once its callback
	// returns); delivered is what an interrupted flow had delivered, and
	// backoff the delay before a scheduled retry (0 when the attempt did not
	// follow one).
	n         int
	src       *cloud.VM
	remaining float64
	flow      *netsim.Flow
	last      *netsim.Flow
	delivered float64
	backoff   sim.Duration
	retry     sim.EventRef
	refetches int
	abandoned bool
	free      bool // back in the arena (freeStage)
	// Tracing (tracer.go): the open transfer span and current attempt span
	// on the worker's transfer lane `lane` of track `track`.
	span    *obs.Span
	attempt *obs.Span
	track   string
	lane    int
	// Hedging (gray.go): the racing second flow and the pending goodput
	// check that may launch it.
	hedge      *netsim.Flow
	hedgeCheck sim.EventRef
	// Attribution (attrib.go): anCause is the chain's current cause node —
	// the ambient cause at transfer start, then each attempt outcome in
	// turn; anHedge is the hedge-launch node while a hedge races.
	anCause, anHedge attrib.NodeID
}

// stageStep is the chain a stage continues once its payload has landed
// (or is lost): staged dispatches on it.
type stageStep uint8

const (
	stepCommon stageStep = iota // the common dataset; the worker's staging goes on (commonStaged)
	stepChain                   // file at of w.chain; the chain streams the next
	stepFetch                   // att's inputs from att.files[at]; the fetch decision goes on
)

// stageWake is the wait a stage's pending event ends.
type stageWake uint8

const (
	wakeNoSource stageWake = iota // no copy left to stream: the transfer is lost
	wakeRetry                     // the backoff before the next attempt
	wakeLanded                    // the payload's disk write
)

// newStage takes a stage of bytes to w from the runner's arena.
func (r *Runner) newStage(w *simWorker, bytes float64, step stageStep) *stageIn {
	s := r.stageArena.New()
	s.w, s.bytes, s.step = w, bytes, step
	return s
}

// freeStage gives s back to the runner's arena once its use has ended (see
// stageIn). Releasing a stage that still has a flow, a hedge, a pending
// retry or a pending goodput check panics.
func (r *Runner) freeStage(s *stageIn) {
	if s.flow != nil || s.hedge != nil || s.retry.Pending() || s.hedgeCheck.Pending() {
		panic(fmt.Sprintf("simrun: stage to %s released while it still runs", s.w.name))
	}
	s.free = true
	r.stageArena.Free(s)
}

// mustRun panics when an event or a flow of s reaches it after freeStage.
func (s *stageIn) mustRun() {
	if s.free {
		panic("simrun: event of a released stage")
	}
}

// oneFile makes file the stage's only file, backed by the stage itself.
func (s *stageIn) oneFile(file int32) *stageIn {
	s.one[0] = file
	s.files = s.one[:]
	return s
}

// transfer moves s.bytes of s.files to s.w. With NetFaults set, a flow
// killed by a link fault retries after a capped, jittered exponential
// backoff — resuming from the delivered-byte offset and from the best
// surviving replica when Resume is on, restarting from zero at the master
// otherwise. The stage's chain continues (staged) exactly once, with
// lost=true when the transfer cannot complete (no retry budget, or the
// worker died between attempts); it never does if the stage is abandoned
// by workerDied. The fault-free path is event-for-event identical to a
// plain cluster.Transfer.
func (r *Runner) transfer(s *stageIn) *stageIn {
	s.r, s.startAt = r, r.eng.Now()
	r.attempt(s, s.bytes, 1)
	return s
}

// attempt starts attempt n of s: remaining bytes from the source rule's
// pick.
func (r *Runner) attempt(s *stageIn, remaining float64, n int) {
	s.n, s.remaining, s.src = n, remaining, r.source(s.w, s.files, n)
	if s.src == nil {
		// Durability only: every copy is gone — nothing to stream.
		s.wake = wakeNoSource
		r.eng.ScheduleHandler(0, s)
	} else {
		r.startFlow(s, remaining)
	}
	r.onTransfer(s, xferStart, "")
	s.backoff = 0
}

// startFlow streams the attempt's remaining bytes from s.src; the stage
// owns the flow.
func (r *Runner) startFlow(s *stageIn, remaining float64) {
	r.flowStarted()
	r.res.BytesMoved += remaining
	s.flow = r.cluster.Transfer(s.src, s.w.vm, remaining, s)
}

// FlowDone settles the attempt's flow delivering its payload.
func (s *stageIn) FlowDone(f *netsim.Flow) {
	s.mustRun()
	r := s.r
	r.flowEnded()
	s.flow = nil
	r.arrive(s, s.src, f)
}

// FlowInterrupted settles a link fault killing the attempt's flow, which
// carried the attempt's whole remaining payload (f.Bytes()).
func (s *stageIn) FlowInterrupted(f *netsim.Flow, delivered float64) {
	s.mustRun()
	r, remaining := s.r, f.Bytes()
	r.flowEnded()
	s.flow, s.delivered = nil, delivered
	r.res.BytesMoved -= remaining - delivered
	if s.abandoned {
		return
	}
	r.res.TransferInterrupts++
	s.last = f
	r.onTransfer(s, xferInterrupted, "")
	s.last = nil
	if s.hedge != nil {
		// The hedge twin (gray.go) is still streaming; let it finish the
		// transfer (its interrupt handler resumes the retry ladder if it
		// dies too).
		return
	}
	next := remaining
	if r.resume {
		next = remaining - delivered
	}
	r.retryAfter(s, next, "no-retry")
}

// Fire ends the wait the stage scheduled (s.wake).
func (s *stageIn) Fire() {
	s.mustRun()
	r := s.r
	switch s.wake {
	case wakeNoSource:
		if !s.abandoned {
			r.lose(s, "no-source")
		}
	case wakeRetry:
		s.retry = sim.EventRef{}
		if s.abandoned {
			return
		}
		if s.w.Dead {
			r.lose(s, "worker-dead")
			return
		}
		r.attempt(s, s.remaining, s.n+1)
	case wakeLanded:
		r.landed(s)
	}
}

// arrive settles a payload f delivered — the attempt's flow or, under
// gray-failure hedging, whichever of the two racing flows finished first;
// from, the winner's source, becomes the attempt's.
func (r *Runner) arrive(s *stageIn, from *cloud.VM, f *netsim.Flow) {
	if s.abandoned {
		return
	}
	s.src, s.last = from, f
	if !r.corrupt(from, s.w) {
		r.onTransfer(s, xferOK, "")
		s.last = nil
		r.staged(s, false)
		return
	}
	// Checksum mismatch on arrival (durability.go): refetch the whole
	// payload, from the next-best replica if any, up to maxRefetch times.
	r.res.CorruptionsDetected++
	s.refetches++
	r.onTransfer(s, xferCorrupt, "")
	s.last = nil
	if s.refetches <= maxRefetch && !s.w.Dead {
		r.attempt(s, s.bytes, s.n+1)
		return
	}
	r.onTransfer(s, xferRejected, "")
	r.staged(s, true)
}

// retryAfter schedules attempt s.n+1 of next bytes, or declares the
// transfer lost — for the reason why — when there is no retry budget. The
// next attempt's payload waits in s.remaining, which nothing reads between
// the attempts.
func (r *Runner) retryAfter(s *stageIn, next float64, why string) {
	if r.rng == nil || s.n >= maxTransferAttempts || s.w.Dead {
		r.lose(s, why) // without NetFaults there is no retry ladder
		return
	}
	r.res.TransferRetries++
	s.backoff = r.backoff(s.n)
	r.onTransfer(s, xferRetry, "")
	s.remaining, s.wake = next, wakeRetry
	s.retry = r.eng.ScheduleHandler(s.backoff, s)
}

// lose fails the transfer for the reason why.
func (r *Runner) lose(s *stageIn, why string) {
	r.onTransfer(s, xferLost, why)
	r.staged(s, true)
}

// staged continues the stage's chain once its transfer has ended: a lost
// payload or a dead worker ends the stage's use, and a payload to write to
// disk is landed next.
func (r *Runner) staged(s *stageIn, lost bool) {
	w, step, att, at := s.w, s.step, s.att, s.at
	if step == stepFetch {
		att.stage = nil
	}
	if !w.Dead && !lost {
		s.wake = wakeLanded
		r.chargeDiskWrite(w, s.bytes, s)
		return
	}
	r.freeStage(s)
	switch {
	case step == stepFetch:
		if !w.Dead {
			r.fetchLost(att, at)
		}
	case w.Dead:
		r.stagingGoesOn(w, step)
	default:
		// A lost staging transfer isolates the worker: without its data it
		// can never run a task, matching the prototype's behaviour of
		// dropping a worker whose staging failed.
		r.workerDied(w)
		r.stagingGoesOn(w, step)
	}
}

// stagingGoesOn moves w's staging past a stage that brought nothing: the
// common dataset's chain continues (keeping the barrier count balanced; for
// a dead worker that is a no-op), a file chain ends.
func (r *Runner) stagingGoesOn(w *simWorker, step stageStep) {
	if step == stepCommon {
		r.commonStaged(w)
		return
	}
	r.barrier(w)
}

// landed ends the stage's use once its payload is on disk, and continues
// its chain.
func (r *Runner) landed(s *stageIn) {
	w, step, att, at, file := s.w, s.step, s.att, s.at, s.files[0]
	r.freeStage(s)
	switch step {
	case stepCommon:
		if !w.Dead {
			r.led.Arrive(&w.Worker)
			r.noteStaged(r.common, w)
		}
		r.commonStaged(w)
	case stepChain:
		w.Held.Add(file)
		r.noteStaged(file, w)
		r.streamChain(w, at+1)
	case stepFetch:
		r.fetched(att, at)
	}
}

// backoff returns the delay before attempt n+1: backoffSec doubling per
// attempt, capped at backoffCapSec, with seeded jitter in [0.5, 1.5) to
// de-synchronise retry storms across workers sharing a restored link.
func (r *Runner) backoff(n int) sim.Duration {
	d := backoffSec * math.Pow(2, float64(n-1))
	if d > backoffCapSec {
		d = backoffCapSec
	}
	return sim.Duration(d * (0.5 + r.rng.Float64()))
}

// abandonStage kills a transfer's current flow and pending retry; its done
// callback will never run. A nil or abandoned stage is left alone.
func (r *Runner) abandonStage(s *stageIn) {
	if s == nil || s.abandoned {
		return
	}
	s.abandoned = true
	if s.flow != nil {
		r.cluster.Network().Cancel(s.flow)
		s.flow = nil
		r.flowEnded()
	}
	s.retry.Cancel()
	s.retry = sim.EventRef{}
	r.onTransfer(s, xferAbandoned, "")
}

// sourceFor is the published source rule: the master on a first attempt,
// and on a Resume retry the best surviving replica, else the master again.
// Durability swaps in its own rule (durability.go).
func (r *Runner) sourceFor(w *simWorker, files []int32, n int) *cloud.VM {
	if n > 1 && r.resume {
		if o := r.bestHolder(files, w, nil); o != nil {
			return o.vm
		}
	}
	return r.master
}

// bestHolder is the replica picker: the live, undrained worker on a
// healthy uplink that holds every named file and carries the fewest active
// uplink flows, the first in registration order on ties. skip and skipVM
// (either may be nil) exclude the destination and a source already in use.
// Nil when no worker qualifies.
func (r *Runner) bestHolder(files []int32, skip *simWorker, skipVM *cloud.VM) *simWorker {
	var best *simWorker
	for _, o := range r.workers {
		if o == skip || o.vm == skipVM || !o.Live() || o.vm.Host().Up().Failed() {
			continue
		}
		holds := true
		for _, f := range files {
			if !r.replicas.HasID(f, o.node) {
				holds = false
				break
			}
		}
		if holds && (best == nil || o.vm.Host().Up().ActiveFlows() < best.vm.Host().Up().ActiveFlows()) {
			best = o
		}
	}
	return best
}

// afterCommon is what a worker does once its common dataset is staged.
type afterCommon uint8

const (
	commonKick  afterCommon = iota // ask for work: real-time starts, elastic joins, re-stages after a disk death
	commonChain                    // stream its files, then the barrier (startStaged)
)

// stageCommon transfers the common dataset (if any) and marks the worker
// ready; commonStaged continues either way (staged, landed), as next says.
func (r *Runner) stageCommon(w *simWorker, next afterCommon) {
	w.afterCommon = next
	if !r.streamsCommon() {
		r.led.Arrive(&w.Worker)
		r.commonStaged(w)
		return
	}
	r.transfer(r.newStage(w, r.wl.CommonBytes, stepCommon).oneFile(r.common))
}

// streamsCommon reports whether staging a worker streams the common
// dataset to it: there is one, and the data is not local already.
func (r *Runner) streamsCommon() bool {
	return r.wl.CommonBytes > 0 && r.cfg.Strategy.Locality != strategy.Local
}

// stageEveryCommon stages every worker's common dataset, the storm that
// opens a run: its stages and their flows take one chunk each.
func (r *Runner) stageEveryCommon(next afterCommon) {
	if r.streamsCommon() {
		r.stageArena.Reserve(len(r.workers))
		r.cluster.Network().ReserveFlows(len(r.workers))
	}
	for _, w := range r.workers {
		r.stageCommon(w, next)
	}
}

// commonStaged continues a worker once its common dataset is in place, lost,
// or moot because the worker died, as stageCommon was told.
func (r *Runner) commonStaged(w *simWorker) {
	if w.afterCommon == commonKick {
		r.kick(w)
		return
	}
	fs := r.stageFiles(w)
	if r.cfg.Strategy.Locality == strategy.Local {
		for _, f := range fs {
			w.Held.Add(f)
		}
		r.barrier(w)
		return
	}
	w.chain = fs
	r.streamChain(w, 0)
}

// chargeDiskWrite models writing received bytes to local disk, then fires
// then. NewRunner rejects read-only worker storage, so a write error here
// is a programming error, not a run condition.
func (r *Runner) chargeDiskWrite(w *simWorker, bytes float64, then sim.Handler) {
	if !r.cfg.ModelDiskIO || bytes <= 0 {
		then.Fire()
		return
	}
	dur, err := w.disk.Write(bytes)
	if err != nil {
		panic(fmt.Sprintf("simrun: disk write on %s: %v", w.name, err))
	}
	r.after(r.eng.Now()+dur, w, delayDiskWrite, then)
}

// noteStaged records that a payload landed: w now holds file. The landing
// itself is physical — the bytes are on disk and the chain continues — but
// the note is the master's: during an outage the worker's report is held
// and the map updates at recovery.
func (r *Runner) noteStaged(file int32, w *simWorker) {
	if r.offline {
		r.hold(func() { r.noteStaged(file, w) })
		return
	}
	r.replicas.AddID(file, w.node)
	for _, h := range r.hooks {
		h.staged(file, w)
	}
}

// startStaged runs the strict two-phase strategies: every worker stages the
// common dataset and then its files — pre-partitioning its share's,
// no-partitioning the whole dataset — as a chain of flows, one at a time
// (like a per-worker scp loop), or finds them on disk when data is local.
// Each worker's staging is one staging item of the ledger, and execution
// begins only once every one has closed (barrier).
func (r *Runner) startStaged(files func(w *simWorker) []int32) {
	r.stageFiles = files
	for _, w := range r.workers {
		r.led.Stage(&w.Worker)
	}
	r.stageEveryCommon(commonChain)
}

// barrier closes w's staging item; the last one starts the compute phase,
// for every ready, live worker, late joiners included.
func (r *Runner) barrier(w *simWorker) {
	if !r.led.Staged(&w.Worker) {
		return
	}
	r.res.StagingPhaseSec = float64(r.eng.Now() - r.startAt) // it began at Start
	r.kickAll()
	r.checkDone()
}

// streamChain sends w.chain[i:] to w one flow at a time, skipping files it
// already holds; the barrier follows the last. A file lost to link faults
// isolates the worker (its staging is incomplete), and the barrier still
// counts it (staged).
func (r *Runner) streamChain(w *simWorker, i int) {
	for ; i < len(w.chain) && !w.Dead; i++ {
		f := w.chain[i]
		if w.Held.Has(f) {
			continue
		}
		s := r.newStage(w, r.sizes[f], stepChain)
		s.at = i
		r.transfer(s.oneFile(f))
		return
	}
	w.chain = nil
	r.barrier(w)
}

// filesOf lists the distinct inputs of tasks idx in order of first
// appearance: the chain a staged worker streams.
func (r *Runner) filesOf(idx []int) []int32 {
	var seen catalog.IDSet
	out := make([]int32, 0, len(idx))
	for _, gi := range idx {
		for _, f := range r.led.Inputs(gi) {
			if seen.Add(f) {
				out = append(out, f)
			}
		}
	}
	return out
}

// tasksAsGroups adapts TaskSpecs to partition.Groups for the assigners.
func tasksAsGroups(tasks []TaskSpec) []partition.Group {
	out := make([]partition.Group, len(tasks))
	for i, t := range tasks {
		out[i] = partition.Group{Index: i, Files: t.Files}
	}
	return out
}

// allIndices returns 0..n-1.
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
