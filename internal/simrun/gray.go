// Gray-failure mitigation: speculative re-execution and hedged transfers.
//
// A fail-stop fault is loud — the detector declares the worker, its tasks
// requeue. A gray failure is quiet: the worker heartbeats on time while its
// compute rate has silently collapsed, or a link delivers a tenth of its
// provisioned bandwidth without ever failing. Nothing in the published
// prototype notices either; one straggler stalls the whole BLAST makespan.
//
// The machinery here reacts to the adaptive detector's slow-suspicions
// (fault/adaptive.go): a suspected worker stops being fed new tasks, its
// longest-running task is cloned to the least-loaded healthy worker
// (first finisher wins, the loser is cancelled and its work accounted as
// SpeculativeWastedSec), and a transfer whose observed goodput falls below
// a fraction of the fleet's running average races a second pull from the
// next-best replica. Both mitigations are budget-capped like
// MaxConcurrentRepairs. Everything stays off with a nil Config.Gray, one
// branch per site, so disabled runs are byte-identical to the published
// model.
package simrun

import (
	"sort"

	"frieda/internal/cloud"
	"frieda/internal/netsim"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
)

// GrayConfig selects gray-failure mitigation. Requires Config.Detection:
// progress watermarks ride the heartbeat channel, and the adaptive detector
// (fault/adaptive.go) always runs with it.
type GrayConfig struct {
	// Speculate clones a slow-suspected worker's longest-running task to
	// the least-loaded healthy worker; first finisher wins and the loser is
	// cancelled.
	Speculate bool
	// Hedge launches a second pull from the next-best replica when a
	// transfer's observed goodput falls below hedgeFraction x the running
	// average of completed-transfer goodputs; the slower flow is cancelled.
	Hedge bool
}

// Gray mitigation settings, as the stragglers sweep runs them.
const (
	// speculateAfterSec is the minimum compute wall time before a task is
	// eligible for cloning — short tasks finish faster than a clone could
	// help.
	speculateAfterSec = 15
	// maxConcurrentSpeculative caps in-flight clones, the budget that keeps
	// speculation below foreground work.
	maxConcurrentSpeculative = 8
	// hedgeCheckSec is the mean delay before a transfer's goodput check,
	// jittered from hedgeSeed so checks de-synchronise. The jitter RNG is
	// consumed only when Hedge is on.
	hedgeCheckSec = 6
	hedgeSeed     = 41
	// hedgeFraction is the goodput threshold relative to the fleet's
	// exponentially-weighted average. Peer-relative rather than absolute:
	// during a fair-share staging storm every flow is slow together, and
	// none should hedge.
	hedgeFraction = 0.4
	// maxConcurrentHedges caps in-flight hedge flows.
	maxConcurrentHedges = 4
)

// specPair tracks one speculative race: the suspected primary attempt and
// its clone on a healthy worker. The pair exists only while both sides run;
// whichever side settles first (completion or failure) dissolves it.
type specPair struct {
	primary, clone *taskAttempt
	pw, cw         *simWorker
}

// SetWorkerSpeed sets vm's compute-rate factor (1 = provisioned speed).
// Pending computes are settled at the old rate and rescheduled at the new
// one, so a mid-task slowdown stretches exactly the remaining work. This is
// the straggler injector's hook: it models gray degradation — CPU
// contention, thermal throttling, a noisy neighbour — not death, so the
// worker keeps heartbeating and keeps its data.
func (r *Runner) SetWorkerSpeed(vm *cloud.VM, factor float64) {
	w := r.worker(vm)
	if w == nil || w.dead || factor <= 0 || factor == w.speed {
		return
	}
	old := w.speed
	w.speed = factor
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant(w.name, "fault", "speed-change", obs.Args{"factor": factor})
	}
	atts := make([]*taskAttempt, 0, len(w.inflight))
	for _, att := range w.inflight {
		if att.compute.Pending() {
			atts = append(atts, att)
		}
	}
	sort.Slice(atts, func(i, j int) bool { return atts[i].task < atts[j].task })
	now := r.eng.Now()
	for _, att := range atts {
		att.workLeft -= float64(now-att.rateSince) * old
		if att.workLeft < 0 {
			att.workLeft = 0
		}
		att.rateSince = now
		att.compute.Cancel()
		att.compute = r.eng.Schedule(sim.Duration(att.workLeft/factor), att.finish)
	}
}

// WorkerSpeed returns vm's current compute-rate factor (0 for unknown VMs).
func (r *Runner) WorkerSpeed(vm *cloud.VM) float64 {
	if w := r.worker(vm); w != nil {
		return w.speed
	}
	return 0
}

// initGray wires the adaptive detector callbacks. Called from Start after
// initDetector, gray runs only.
func (r *Runner) initGray() {
	r.detector.EnableAdaptive()
	r.detector.OnSlowSuspect(func(node string) {
		r.res.StragglersSuspected++
	})
	r.detector.OnSlowClear(func(node string) {
		// The worker is healthy again: resume feeding it.
		for _, w := range r.workers {
			if w.name == node && !w.dead {
				r.kick(w)
				return
			}
		}
	})
}

// reportProgress piggybacks a task-progress watermark on the worker's
// heartbeat: the minimum observed normalized compute rate across its
// running tasks (work completed per wall second; 1.0 = provisioned speed).
// The minimum, not the oldest task's rate: a task that was nearly done when
// the slowdown hit keeps a high lifetime-average rate for a long while, but
// any task started after the slowdown shows the collapsed rate immediately.
// A suspicion verdict may follow synchronously, and while the worker stays
// suspected each report is a fresh chance to speculate under the budget.
func (r *Runner) reportProgress(w *simWorker) {
	now := r.eng.Now()
	rate, seen := 0.0, false
	for _, a := range w.inflight {
		if !a.compute.Pending() || a.cancelled {
			continue
		}
		elapsed := float64(now - a.started)
		if elapsed <= 0 {
			continue
		}
		left := a.workLeft - float64(now-a.rateSince)*w.speed
		if left < 0 {
			left = 0
		}
		if ar := (a.workTotal - left) / elapsed; !seen || ar < rate {
			rate, seen = ar, true
		}
	}
	if !seen {
		if w.admitted == 0 && r.detector.SlowSuspected(w.name) {
			// An idle worker yields no progress evidence; report neutral so
			// the stale suspicion clears and admission resumes.
			r.detector.ReportProgress(w.name, 1)
		}
		return
	}
	r.detector.ReportProgress(w.name, rate)
	if r.detector.SlowSuspected(w.name) {
		r.maybeSpeculate(w)
	}
}

// maybeSpeculate clones the suspected worker's oldest long-running task to
// the least-loaded healthy worker, within the speculation budget. The clone
// is a full attempt — it fetches whatever inputs its host is missing — and
// races the primary; settleSpec resolves whichever side finishes first.
func (r *Runner) maybeSpeculate(sw *simWorker) {
	if !r.cfg.Gray.Speculate || r.finished || len(r.specs) >= maxConcurrentSpeculative {
		return
	}
	now := r.eng.Now()
	var att *taskAttempt
	for _, a := range sw.inflight {
		if !a.compute.Pending() || a.cancelled || a.clone {
			continue
		}
		if _, dup := r.specs[a.task]; dup {
			continue
		}
		if float64(now-a.started) < speculateAfterSec {
			continue
		}
		// Prefer the longest-running attempt — the most stranded work —
		// breaking ties by task index for determinism.
		if att == nil || a.started < att.started ||
			(a.started == att.started && a.task < att.task) {
			att = a
		}
	}
	if att == nil {
		return
	}
	cw := r.speculationTarget(sw)
	if cw == nil {
		return
	}
	r.res.SpeculativeLaunched++
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant(cw.name, "spec", "spec-launched", obs.Args{
			"task": att.task, "suspect": sw.name,
		})
	}
	if ab := r.cfg.Attrib; ab.Enabled() {
		// The wait from the primary's compute start to this launch is the
		// detection latency of the slow-suspicion; the clone's own work then
		// chains from the launch as speculation overhead.
		launch := ab.After(att.anStart, attrib.DetectionLatency, "spec-launch", sw.name)
		r.anCause = ab.After(launch, attrib.SpeculationOverhead, "spec-dispatch", cw.name)
	}
	cw.admitted++ // speculation may oversubscribe the pipeline, by budget
	catt := r.fetchAndRun(cw, att.task)
	catt.clone = true
	r.specs[att.task] = &specPair{primary: att, pw: sw, clone: catt, cw: cw}
}

// speculationTarget picks the clone's host: the least-loaded live, ready,
// unsuspected worker (registration order on ties).
func (r *Runner) speculationTarget(sw *simWorker) *simWorker {
	var best *simWorker
	for _, o := range r.workers {
		if o == sw || o.dead || o.draining || !o.ready {
			continue
		}
		if r.detector.SlowSuspected(o.name) || r.detector.Suspected(o.name) {
			continue
		}
		if best == nil || o.admitted < best.admitted {
			best = o
		}
	}
	return best
}

// settleSpec resolves one side of a speculative race reaching taskDone.
// Returns true when the event was absorbed: this side failed (worker death,
// lost fetch, read error) while its twin still runs, so the twin owns the
// task's fate and no terminal or retry bookkeeping happens here. On a win
// it cancels the losing twin and returns false — the winner proceeds
// through normal terminal accounting, first finisher wins.
func (r *Runner) settleSpec(w *simWorker, att *taskAttempt, ok bool) bool {
	p, found := r.specs[att.task]
	if !found {
		return false
	}
	var other *taskAttempt
	var ow *simWorker
	switch att {
	case p.clone:
		other, ow = p.primary, p.pw
	case p.primary:
		other, ow = p.clone, p.cw
	default:
		return false
	}
	delete(r.specs, att.task)
	if !ok {
		return true
	}
	if att == p.clone {
		r.res.SpeculativeWon++
	}
	r.cancelAttempt(ow, other)
	return false
}

// cancelAttempt kills a speculative race's losing attempt: its transfer is
// abandoned (un-claiming files that never landed), its compute cancelled
// and the elapsed effort accounted as SpeculativeWastedSec, its core and
// pipeline slot freed, and a Cancelled completion recorded so the Gantt can
// render the discarded lane.
func (r *Runner) cancelAttempt(w *simWorker, att *taskAttempt) {
	att.cancelled = true
	now := r.eng.Now()
	wasted := 0.0
	if att.stage != nil {
		wasted = float64(now - att.stage.startAt)
		r.abandonStage(att.stage)
		att.stage = nil
		for _, name := range att.claimed {
			if !r.replicas.Has(name, w.name) {
				delete(w.has, name)
			}
		}
	}
	if att.compute.Pending() {
		wasted = float64(now - att.started)
		att.compute.Cancel()
		att.compute = sim.EventRef{}
		r.computeEnded()
		w.cores.Release()
	}
	r.res.SpeculativeWastedSec += wasted
	r.endTaskSpan(w, att, "spec-lost")
	if !w.dead {
		delete(w.inflight, att.task)
		w.admitted--
	}
	r.res.Completions = append(r.res.Completions, Completion{
		Task: att.task, Worker: w.name, Start: att.started, End: now,
		Attempt: r.retries[att.task] + 1, Speculative: true, Cancelled: true,
	})
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant(w.name, "spec", "spec-cancelled", obs.Args{"task": att.task})
	}
	if !w.dead {
		r.kick(w)
	}
}

// observeGoodput folds a completed transfer's goodput into the fleet
// average the hedging threshold compares against.
func (r *Runner) observeGoodput(bytes, elapsed float64) {
	if elapsed <= 0 {
		return
	}
	bps := bytes * 8 / elapsed
	if r.xferEwmaBps == 0 {
		r.xferEwmaBps = bps
		return
	}
	r.xferEwmaBps = 0.8*r.xferEwmaBps + 0.2*bps
}

// armHedge schedules the goodput check for a transfer attempt. If, at check
// time, the primary flow is still the one running and its observed goodput
// has fallen below the threshold, a hedge flow races it from the next-best
// replica: whichever delivers first wins and the other is cancelled with
// its undelivered bytes refunded. The check delay is jittered so a burst of
// simultaneous transfers doesn't hedge in lockstep. orphan resumes the
// transfer's retry ladder in the rare case both racing flows are killed by
// link faults (the primary's interrupt handler defers to a live hedge).
func (r *Runner) armHedge(s *stageIn, w *simWorker, files []string, remaining float64, src *cloud.VM, arrive func(*cloud.VM), orphan func()) {
	primary := s.flow
	started := r.eng.Now()
	delay := hedgeCheckSec * (0.75 + 0.5*r.hedgeRng.Float64())
	s.hedgeCheck = r.eng.Schedule(sim.Duration(delay), func() {
		s.hedgeCheck = sim.EventRef{}
		if s.abandoned || r.finished || w.dead || s.flow != primary || s.hedge != nil {
			return
		}
		if r.activeHedges >= maxConcurrentHedges || r.xferEwmaBps <= 0 {
			return
		}
		elapsed := float64(r.eng.Now() - started)
		if elapsed <= 0 || primary.Delivered()*8/elapsed >= hedgeFraction*r.xferEwmaBps {
			return
		}
		// The hedge's source: the best holder other than the primary's
		// source, else the master if it is not that source and still holds
		// the files; without one there is no hedge.
		src2 := r.master
		if o := r.bestHolder(files, w, src); o != nil {
			src2 = o.vm
		} else if src == r.master || !r.masterHolds(files) {
			return
		}
		r.activeHedges++
		r.res.HedgedTransfers++
		if tr := r.cfg.Tracer; tr.Enabled() {
			tr.Instant(s.track, "spec", "hedge-launched", obs.Args{"src": src2.Name()})
		}
		r.flowStarted()
		r.res.BytesMoved += remaining
		if ab := r.cfg.Attrib; ab.Enabled() {
			s.anHedge = ab.After(s.anCause, attrib.DetectionLatency, "hedge-launch", src2.Name())
		}
		var hf *netsim.Flow
		hf = r.cluster.Transfer(src2, w.vm, remaining, func(sim.Time) {
			// Hedge won the race: drop the primary and deliver.
			r.flowEnded()
			s.hedge = nil
			r.activeHedges--
			if s.flow != nil {
				r.res.BytesMoved -= s.flow.Remaining()
				r.cluster.Network().Cancel(s.flow)
				s.flow = nil
				r.flowEnded()
			}
			if ab := r.cfg.Attrib; ab.Enabled() {
				// The delivery descends from the hedge-launch decision, not
				// the primary attempt it raced past.
				s.anCause = s.anHedge
				s.bnDetail = bottleneckName(hf)
			}
			arrive(src2)
		})
		s.hedge = hf
		s.hedge.OnInterrupt(func(delivered float64, _ sim.Time) {
			// Hedge killed by a link fault: the primary carries on alone —
			// unless it already died deferring to this hedge, in which case
			// the retry ladder resumes.
			r.flowEnded()
			s.hedge = nil
			r.activeHedges--
			r.res.BytesMoved -= remaining - delivered
			if s.abandoned {
				return
			}
			if s.flow == nil {
				orphan()
			}
		})
	})
}

// dropHedge cancels the losing hedge flow after the primary delivered
// first, refunding its undelivered bytes.
func (r *Runner) dropHedge(s *stageIn) {
	h := s.hedge
	s.hedge = nil
	r.activeHedges--
	r.res.BytesMoved -= h.Remaining()
	r.cluster.Network().Cancel(h)
	r.flowEnded()
}

// masterHolds reports whether the master still holds every named file
// (always true without durability; EvacuateSource drops staged files).
func (r *Runner) masterHolds(files []string) bool {
	if r.cfg.Durability == nil {
		return true
	}
	for _, f := range files {
		if r.evacuated[f] {
			return false
		}
	}
	return true
}

// hedgeFlow exposes the in-flight hedge twin of a stage (tests only).
func (s *stageIn) hedgeFlow() *netsim.Flow { return s.hedge }
