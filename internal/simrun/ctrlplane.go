package simrun

// Execution-template control plane (ROADMAP item 2, after Mashayekhi et
// al.'s Execution Templates): the master's per-task scheduling decision is
// modeled as time on a single decision server, and a generation-stamped
// template cache (internal/ctrlplane) lets repeated decisions replay in O(1)
// instead of re-running the full scan. Admission (eager or via the batched
// drainAdmits pass) routes every dispatch through dispatchCtrl when
// Config.CtrlPlane is set; nil keeps the published zero-cost control plane,
// byte-identical to all committed goldens.

import (
	"fmt"

	"frieda/internal/cloud"
	"frieda/internal/ctrlplane"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
	"frieda/internal/strategy"
)

// CtrlPlaneConfig models the master's control-plane decision cost and
// enables the execution-template cache. Nil (the default) keeps decisions
// free and instantaneous — the published model.
type CtrlPlaneConfig struct {
	// Templates enables the execution-template cache: a hit costs
	// decisionSec/templateHitSpeedup, a map probe and per-task hole filling
	// instead of the full derivation. Off, every decision pays decisionSec
	// — the per-task control plane the paper-era master ships with. Every
	// hit is re-derived through the slow path and a divergence panics
	// (checkTemplate); that costs wall time only, never virtual time.
	Templates bool
}

const (
	// decisionSec is the modeled cost of one full scheduling decision on
	// the master: the queue scan, source selection, slot bookkeeping and
	// dispatch-message build of one task. Decisions serialise through a
	// single decision server on the virtual clock — a decision requested at
	// t starts at max(t, server-busy-until) — so at high task counts the
	// control plane becomes the throughput cap the network never was,
	// exactly the regime templates exist for.
	decisionSec = 2e-3
	// templateHitSpeedup is how many template hits cost one full decision.
	templateHitSpeedup = 50
)

// ctrlState is the runner-side control-plane model: the template cache plus
// the decision server's busy horizon.
type ctrlState struct {
	templates bool
	cache     *ctrlplane.Cache
	// busyUntil is when the single decision server frees up; requests
	// serialise behind it.
	busyUntil sim.Time
	// tmplSrc pins the next sourceFor call to a template-cached source for
	// the duration of one dispatch; nil outside a template-hit dispatch.
	tmplSrc *cloud.VM
}

// dispatchCtrl makes one control-plane decision for w: pick the next task —
// template fast path on a cache hit, the full nextTask scan on a miss —
// charge the decision's modeled cost on the decision server, and schedule
// the dispatch for when the server gets to it. Returns false when the worker
// has no work available. The slot is reserved (w.admitted) at decision time
// so same-instant kicks cannot over-admit; speculation clones and repair
// flows are master-initiated mitigation, not task dispatches, and bypass the
// decision server.
func (r *Runner) dispatchCtrl(w *simWorker) bool {
	c := r.ctrl
	if len(w.backlog) == 0 && len(r.queue) == 0 {
		return false
	}
	class, templatable := r.templateClass(w)
	var (
		key ctrlplane.Key
		dec ctrlplane.Decision
		hit bool
	)
	if c.templates {
		if templatable {
			key = ctrlplane.Key{Worker: w.name, Class: class}
			dec, hit = c.cache.Lookup(key)
		} else {
			c.cache.NoteMiss()
		}
	}
	var gi int
	if hit {
		r.checkTemplate(w, dec)
		gi = r.popHead(w)
	} else {
		var ok bool
		gi, ok = r.nextTask(w)
		if !ok {
			return false
		}
		if c.templates && templatable {
			// The slow path just proved the class's decision under the
			// current generation: head pick (templatable classes never
			// scan past the head) and, without durability, the master as
			// the canonical first-attempt source.
			c.cache.Install(key, ctrlplane.Decision{
				PickHead:     true,
				SourceMaster: r.cfg.Durability == nil,
			})
		}
	}
	cost := float64(decisionSec)
	if hit {
		// Divided at run time, in float64: the constant expression would be
		// rounded once from the exact quotient instead.
		cost /= templateHitSpeedup
	}
	r.res.CtrlPlaneDecisionSec += cost
	w.admitted++
	now := r.eng.Now()
	start := c.busyUntil
	if start < now {
		start = now
	}
	fire := start + sim.Time(cost)
	c.busyUntil = fire
	pinSrc := hit && dec.SourceMaster
	var cause attrib.NodeID
	ab := r.cfg.Attrib
	if ab.Enabled() {
		cause = r.anCause
	}
	r.eng.At(fire, func() {
		if ab.Enabled() {
			r.anCause = ab.After(cause, attrib.CtrlPlane, "ctrl-decision", w.name)
		}
		r.fireDispatch(w, gi, pinSrc)
	})
	return true
}

// fireDispatch delivers a decided dispatch once the decision server has
// processed it. The worker can die between decision and delivery; the task
// then settles exactly as a dead worker's unstarted backlog entry does in
// reassign — requeued under Recover, abandoned otherwise.
func (r *Runner) fireDispatch(w *simWorker, gi int, pinSrc bool) {
	if w.dead {
		w.admitted--
		if r.requeueLost(gi) {
			r.kickAll()
		} else {
			r.settle(Completion{Task: gi, Worker: w.name, End: r.eng.Now(), Attempt: r.retries[gi]})
		}
		r.checkDone()
		return
	}
	if pinSrc {
		r.ctrl.tmplSrc = r.master
	}
	r.fetchAndRun(w, gi)
	r.ctrl.tmplSrc = nil
}

// templateClass classifies the worker's next decision. A class is
// templatable when every task of it takes the identical decision while the
// worker-set generation holds: backlog pops always dispatch the head
// (pre-partitioned assignment), and shared-queue FIFO dispatch without
// compute-to-data placement or durability always picks the queue head and
// streams from the master. Compute-to-data residency scans and durability
// source selection depend on per-task state (what landed where, what was
// evacuated), so those classes run the slow path every time — honestly
// counted as misses.
func (r *Runner) templateClass(w *simWorker) (string, bool) {
	if len(w.backlog) > 0 {
		return "backlog", true
	}
	if r.cfg.Strategy.Placement == strategy.ComputeToData || r.cfg.Durability != nil {
		return "", false
	}
	return "queue", true
}

// popHead is the O(1) template instantiation of nextTask: the backlog head,
// else the queue head. Only called after a template hit proved the head
// pick.
func (r *Runner) popHead(w *simWorker) int {
	if len(w.backlog) > 0 {
		return ctrlplane.PopAt(&w.backlog, 0)
	}
	return ctrlplane.PopAt(&r.queue, 0)
}

// checkTemplate re-derives the decision through the unmodified slow path and
// panics on divergence — the bit-identical-replay property: a template hit
// must decide exactly what the full scan would have decided at this instant.
func (r *Runner) checkTemplate(w *simWorker, dec ctrlplane.Decision) {
	// Head pick: nextTask's decision, without the pop.
	pick := 0
	if len(w.backlog) == 0 {
		pick = r.pickQueue(w)
	}
	if dec.PickHead != (pick == 0) {
		panic(fmt.Sprintf("simrun: template check failed on %s: cached pick-head=%v, slow path picks queue[%d]",
			w.name, dec.PickHead, pick))
	}
	// Source: the first-attempt source the slow path would choose for the
	// head task's missing files. Only real-time remote dispatches fetch.
	if r.cfg.Strategy.Kind != strategy.RealTime || r.cfg.Strategy.Locality != strategy.Remote {
		return
	}
	var gi int
	if len(w.backlog) > 0 {
		gi = w.backlog[0]
	} else {
		gi = r.queue[pick]
	}
	var names []string
	for _, f := range r.wl.Tasks[gi].Files {
		if !w.has[f.Name] {
			names = append(names, f.Name)
		}
	}
	if len(names) == 0 {
		return
	}
	if src := r.sourceForSlow(w, names, 1); dec.SourceMaster != (src == r.master) {
		panic(fmt.Sprintf("simrun: template check failed on %s: cached source-master=%v, slow path picked %v",
			w.name, dec.SourceMaster, src))
	}
}

// ctrlInvalidate bumps the template generation on a worker-set or data
// placement change — worker join, death, drain, evacuation, master recovery.
// Nil-safe: one branch when the control-plane model is off.
func (r *Runner) ctrlInvalidate() {
	if r.ctrl != nil {
		r.ctrl.cache.Invalidate()
	}
}
