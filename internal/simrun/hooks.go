package simrun

import (
	"frieda/internal/ctrlplane"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
)

// hook is one plug-in's view of the run (DESIGN.md, "Lifecycle hooks").
// NewRunner builds r.hooks once, from the sub-configs that are set, in the
// fixed order metrics, detection, gray, master, attrib, durability,
// ctrl-plane, tracer; a disabled feature is absent. Events run the hooks in
// that order, finish in reverse. A hook gets the core's own structs, keeps
// per-attempt state in their fields, and allocates nothing per call.
type hook interface {
	start()                                  // Start, before any staging
	join(w *simWorker)                       // an elastic worker registered after Start
	dispatch(w *simWorker, att *taskAttempt) // before att claims its inputs
	// transfer reports an attempt's start (s.flow nil: no source left) or
	// end, or the whole transfer's; why says why one was lost.
	transfer(s *stageIn, o outcome, why string)
	compute(w *simWorker, att *taskAttempt, o outcome)
	// delayed may wrap the continuation of a modelled wait on w: a record
	// that fires itself (a stage, an attempt, a repair), or a wrapper that
	// fires it.
	delayed(w *simWorker, d delay, then sim.Handler) sim.Handler
	// settle sees a task's terminal outcome once Result has counted it; c
	// points into Result.Completions: read it, do not keep it.
	settle(c *Completion)
	workerDeath(w *simWorker) // the machine died; its work is torn down next
	// workerGone is the master's reaction; dropped lists the files whose
	// copy on w the replica map just forgot, in id (so name) order.
	workerGone(w *simWorker, dropped []int32)
	staged(file int32, w *simWorker) // the master noted that file landed on w
	tick(w *simWorker)               // a heartbeat of w reached the master
	finish()                         // every task is terminal
	admits(w *simWorker) bool        // may w take on new work now?
}

// outcome is the phase a transfer or compute event reports.
type outcome uint8

const (
	xferStart       outcome = iota // an attempt's flow started
	xferOK                         // the payload arrived intact
	xferCorrupt                    // the payload failed verification; a refetch follows
	xferRejected                   // it failed past the refetch budget: the transfer fails
	xferInterrupted                // a link fault killed the attempt's flow
	xferRetry                      // the next attempt starts in s.backoff
	xferLost                       // the transfer failed
	xferAbandoned                  // worker death or a lost race cancelled the transfer
	runStart                       // the compute began on a core
	runOK                          // the compute finished
	runKilled                      // the worker died under it
	runCancelled                   // its speculative twin finished first
)

// delay names a modelled wait whose continuation a plug-in may wrap, as
// the attribution node its end records.
type delay struct {
	cat   attrib.Category
	label string
}

var (
	delayDiskWrite      = delay{attrib.DiskIO, "disk-write"}            // received bytes hit the local disk
	delayConnectTimeout = delay{attrib.RetryBackoff, "connect-timeout"} // the master's dispatch-failure observation
	delayDecision       = delay{attrib.CtrlPlane, "ctrl-decision"}      // the control plane's decision server
)

// nopHook ignores every event; plug-ins embed it and override the events
// they follow.
type nopHook struct{}

func (nopHook) start()                                                      {}
func (nopHook) join(*simWorker)                                             {}
func (nopHook) dispatch(*simWorker, *taskAttempt)                           {}
func (nopHook) transfer(*stageIn, outcome, string)                          {}
func (nopHook) compute(*simWorker, *taskAttempt, outcome)                   {}
func (nopHook) delayed(_ *simWorker, _ delay, then sim.Handler) sim.Handler { return then }
func (nopHook) settle(*Completion)                                          {}
func (nopHook) workerDeath(*simWorker)                                      {}
func (nopHook) workerGone(*simWorker, []int32)                              {}
func (nopHook) staged(int32, *simWorker)                                    {}
func (nopHook) tick(*simWorker)                                             {}
func (nopHook) finish()                                                     {}
func (nopHook) admits(*simWorker) bool                                      { return true }

// onTransfer runs every hook's transfer event.
func (r *Runner) onTransfer(s *stageIn, o outcome, why string) {
	for _, h := range r.hooks {
		h.transfer(s, o, why)
	}
}

// onCompute runs every hook's compute event.
func (r *Runner) onCompute(w *simWorker, att *taskAttempt, o outcome) {
	for _, h := range r.hooks {
		h.compute(w, att, o)
	}
}

// after fires then at t, the end of a modelled wait on w, wrapped by any
// plug-in that follows causality across the wait.
func (r *Runner) after(t sim.Time, w *simWorker, kind delay, then sim.Handler) {
	for _, h := range r.hooks {
		then = h.delayed(w, kind, then)
	}
	r.eng.AtHandler(t, then)
}

// plugIns builds the run's hooks and binds the decisions the plug-ins take
// over, constructing in metric-column order: durability, gray, the core.
func (r *Runner) plugIns() []hook {
	cfg := r.cfg
	an := newAttribution(r)
	var det *detectHook
	if cfg.Detection != nil {
		det = &detectHook{r: r}
		an.det = det
	}
	var dur *durabilityHook
	if cfg.Durability != nil {
		dur = newDurability(r, an)
	}
	var gray *grayHook
	if cfg.Gray != nil {
		gray = newGray(r, det, dur, an)
	}
	var hooks []hook
	if cfg.Metrics.Enabled() {
		hooks = append(hooks, newMetrics(r))
	}
	if det != nil {
		hooks = append(hooks, det)
	}
	if gray != nil {
		hooks = append(hooks, gray)
	}
	if cfg.Master != nil {
		hooks = append(hooks, newMaster(r, det, dur, an))
	}
	if cfg.Attrib.Enabled() {
		hooks = append(hooks, an)
	}
	if dur != nil {
		hooks = append(hooks, dur)
	}
	if cc := cfg.CtrlPlane; cc != nil {
		c := &ctrlHook{r: r, templates: cc.Templates, cache: ctrlplane.NewCache()}
		r.decide = c.decide
		hooks = append(hooks, c)
	}
	if cfg.Tracer.Enabled() {
		hooks = append(hooks, &traceHook{r: r, tr: cfg.Tracer})
	}
	return hooks
}
