package simrun

// Execution-template control plane (after Mashayekhi et al.'s Execution
// Templates): the master's per-task scheduling decision is modeled as time on
// a single decision server, and a generation-stamped template cache
// (internal/ctrlplane) lets repeated decisions replay in O(1) instead of
// re-running the full scan. The plug-in takes over Runner.decide, so every
// admission is priced.

import (
	"fmt"

	"frieda/internal/ctrlplane"
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
	// hit is re-derived through the slow path and a divergence panics;
	// that costs wall time only, never virtual time.
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

// ctrlHook is the control-plane plug-in: the template cache plus the
// decision server's busy horizon.
type ctrlHook struct {
	nopHook
	r         *Runner
	templates bool
	cache     *ctrlplane.Cache
	// gen is the runner generation the cache was last valid for: a worker
	// join, death or drain, an evacuation or a master recovery bumps
	// Runner.gen, and the next decision invalidates every template.
	gen int
	// busyUntil is when the single decision server frees up; requests
	// serialise behind it.
	busyUntil sim.Time
}

// finish reports the template hit and miss counts.
func (c *ctrlHook) finish() {
	s := c.cache.Stats()
	c.r.res.TemplateHits, c.r.res.TemplateMisses = s.Hits, s.Misses
}

// decide makes one control-plane decision for w: pick the next task, charge
// the decision's modeled cost — a template hit's or a full derivation's — on
// the decision server, and schedule the dispatch for when the server gets to
// it. Returns false when the ledger hands w nothing now. The slot is
// reserved (in the ledger's in-flight list) at decision time so same-instant
// kicks cannot over-admit; speculation clones and repair flows are
// master-initiated mitigation, not task dispatches, and bypass the decision
// server.
func (c *ctrlHook) decide(w *simWorker) bool {
	r := c.r
	head, ok := r.led.Head(&w.Worker)
	if !ok {
		return false
	}
	if c.gen != r.gen {
		c.cache.Invalidate()
		c.gen = r.gen
	}
	class, templatable := c.templateClass(w)
	var (
		key ctrlplane.Key
		hit bool
	)
	if c.templates {
		if templatable {
			key = ctrlplane.Key{Worker: w.name, Class: class}
			_, hit = c.cache.Lookup(key)
		} else {
			c.cache.NoteMiss()
		}
	}
	// A hit too takes the slow path's pick, and must have cached the same
	// one (the replay property). Head checked that w can take work.
	gi, _ := r.led.Next(&w.Worker)
	if hit && gi != head {
		panic(fmt.Sprintf("simrun: template check failed on %s: cached head pick %d, slow path picks %d", w.name, head, gi))
	}
	if !hit && c.templates && templatable {
		// The slow path just proved the class's decision under the current
		// generation: the head (templatable classes never scan past it).
		c.cache.Install(key, ctrlplane.Decision{PickHead: true})
	}
	cost := float64(decisionSec)
	if hit {
		// Divided at run time, in float64: the constant expression would be
		// rounded once from the exact quotient instead.
		cost /= templateHitSpeedup
	}
	r.res.CtrlPlaneDecisionSec += cost
	c.busyUntil = max(c.busyUntil, r.eng.Now()) + sim.Time(cost)
	r.after(c.busyUntil, w, delayDecision, &decision{c: c, w: w, gi: gi})
	return true
}

// decision is a dispatch of task gi to w that the decision server is
// processing.
type decision struct {
	c  *ctrlHook
	w  *simWorker
	gi int
}

// Fire delivers the decided dispatch once the decision server has processed
// it. The worker can die between decision and delivery; the task then
// settles exactly as a dead worker's unstarted backlog entry does in
// workerGone — requeued under Recover, abandoned otherwise.
func (d *decision) Fire() {
	r, w, gi := d.c.r, d.w, d.gi
	if w.Dead {
		if r.led.Fail(gi) {
			r.kickAll()
		} else {
			r.settle(Completion{Task: gi, Worker: w.name, End: r.eng.Now(), Attempt: r.led.Attempts(gi)})
		}
		r.checkDone()
		return
	}
	r.fetchAndRun(w, gi)
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
func (c *ctrlHook) templateClass(w *simWorker) (string, bool) {
	if len(w.Backlog) > 0 {
		return "backlog", true
	}
	if cfg := c.r.cfg; cfg.Strategy.Placement == strategy.ComputeToData || cfg.Durability != nil {
		return "", false
	}
	return "queue", true
}
