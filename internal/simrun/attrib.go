package simrun

import (
	"frieda/internal/fault"
	"frieda/internal/netsim"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
)

// attribHook records the run's causal DAG for critical-path attribution
// (Config.Attrib). It carries the ambient cause: every emission sets cause
// to the node it just recorded, so the next emission in the same causal
// chain picks up its true predecessor without threading node ids through
// every signature. Gray, durability and master record their own nodes
// through it; without Attrib its nil recorder records nothing.
type attribHook struct {
	nopHook
	r   *Runner
	ab  *attrib.Recorder
	det *detectHook // nil without Detection
	// begin is the run-start node and last the latest terminal completion,
	// the run-end node's parent.
	begin, cause, last attrib.NodeID
	// repairNode lists, by file id, the node where each repair copy of the
	// file landed and on which worker, so a transfer sourced from a
	// repaired replica records its dependency on the repair that made the
	// source exist.
	repairNode [][]repairMark
}

// repairMark is where one repair copy landed: the worker's replica-map id
// and the attribution node.
type repairMark struct {
	node int32
	at   attrib.NodeID
}

func newAttribution(r *Runner) *attribHook {
	a := &attribHook{r: r, ab: r.cfg.Attrib, begin: attrib.None, cause: attrib.None, last: attrib.None}
	if a.ab.Enabled() && r.cfg.Durability != nil {
		a.repairNode = make([][]repairMark, len(r.sizes))
	}
	return a
}

// repairLanded records the ambient cause as where the repair copy of file
// on w landed, replacing an earlier copy's there.
func (a *attribHook) repairLanded(file int32, w *simWorker) {
	if a.repairNode == nil {
		return
	}
	marks := a.repairNode[file]
	for i := range marks {
		if marks[i].node == w.node {
			marks[i].at = a.cause
			return
		}
	}
	a.repairNode[file] = append(marks, repairMark{w.node, a.cause})
}

func (a *attribHook) start() {
	a.begin = a.ab.At("run-start")
	a.cause = a.begin
}

func (a *attribHook) join(w *simWorker) {
	// An elastic join is an external decision; its staging chain starts
	// here rather than inheriting an unrelated ambient cause.
	a.cause = a.ab.After(a.begin, attrib.Unattributed, "worker-joined", w.name)
}

func (a *attribHook) transfer(s *stageIn, o outcome, why string) {
	ab := a.ab
	switch o {
	case xferStart:
		if s.n == 1 {
			s.anCause, s.anHedge = a.cause, attrib.None
		}
		if s.backoff > 0 {
			s.anCause = ab.After(s.anCause, attrib.RetryBackoff, "retry", "")
		}
	case xferOK:
		ab.ObserveTransferSec(float64(a.r.eng.Now() - s.startAt))
		dn := ab.After(s.anCause, attrib.NetworkTransfer, "xfer-done", bottleneckName(s.last))
		if a.repairNode != nil {
			a.repairEdges(s, dn)
		}
		a.cause = dn
	case xferCorrupt:
		s.anCause = ab.After(s.anCause, attrib.NetworkTransfer, "xfer-corrupt", bottleneckName(s.last))
	case xferRejected:
		a.cause = s.anCause
	case xferInterrupted:
		s.anCause = ab.After(s.anCause, attrib.NetworkTransfer, "xfer-interrupted", bottleneckName(s.last))
	case xferLost:
		a.cause = ab.After(s.anCause, attrib.NetworkTransfer, "xfer-lost", why)
	}
}

// repairEdges links a delivery at dn to the repairs it depends on: the
// payload came off a replica, and if a background repair put that replica
// there, the delivery causally depends on the repair having landed first.
func (a *attribHook) repairEdges(s *stageIn, dn attrib.NodeID) {
	src := a.r.worker(s.src)
	if src == nil {
		return // the master's copy
	}
	for _, f := range s.files {
		for _, m := range a.repairNode[f] {
			if m.node == src.node {
				a.ab.Edge(m.at, dn, attrib.Repair, a.r.replicas.FileName(f))
			}
		}
	}
}

// delayed chains the wait from the cause that started it, so the work the
// continuation dispatches blames the wait, not whatever event happened to
// precede it. The wrapper allocates, in attributed runs only.
func (a *attribHook) delayed(w *simWorker, d delay, then sim.Handler) sim.Handler {
	cause := a.cause
	return sim.Func(func() {
		a.cause = a.ab.After(cause, d.cat, d.label, w.name)
		then.Fire()
	})
}

func (a *attribHook) compute(w *simWorker, att *taskAttempt, o outcome) {
	switch o {
	case runStart:
		// The ambient cause here is whichever event made the compute
		// runnable: this attempt's own staging chain when a core was free,
		// or the completion that released the core after a queue wait.
		att.anStart = a.ab.After(a.cause, attrib.QueueWait, "task-start", w.name)
	case runOK:
		// Elapsed beyond the reference work is straggler inflation: time the
		// span spent draining below provisioned speed.
		inflate := float64(a.r.eng.Now()-att.started) - att.workTotal
		if inflate < 1e-9 {
			inflate = 0
		}
		a.cause = a.ab.AfterSplit(att.anStart, attrib.Compute, inflate, "task-done", w.name)
	}
}

func (a *attribHook) settle(c *Completion) {
	if c.OK {
		a.ab.ObserveTaskSec(float64(c.End - c.Start))
	}
	a.last = a.cause
}

func (a *attribHook) workerGone(w *simWorker, _ []int32) {
	// Chain the death from the detector's suspicion when one exists — the
	// suspect→declare gap is detection latency, the price of the K
	// missed-deadline confirmation ladder. A death with no suspicion
	// (cloud-level VM failure callback) has no in-model cause.
	cause, cat, detail := a.begin, attrib.Unattributed, ""
	if a.det != nil {
		trs := a.det.d.Transitions()
		for i := len(trs) - 1; i >= 0; i-- {
			if trs[i].Node == w.name && trs[i].State == fault.Suspect {
				sus := a.ab.NodeAt(trs[i].At, "suspect")
				a.ab.Edge(a.begin, sus, attrib.Unattributed, w.name)
				cause, cat, detail = sus, attrib.DetectionLatency, w.name
				break
			}
		}
	}
	a.cause = a.ab.After(cause, cat, "worker-died", detail)
}

func (a *attribHook) finish() {
	end := a.ab.After(a.last, attrib.Unattributed, "run-end", "")
	a.r.res.Attribution = a.ab.Solve(a.begin, end)
}

// bottleneckName names the link that capped a finished or interrupted flow,
// the detail string of attribution transfer segments.
func bottleneckName(f *netsim.Flow) string {
	if l := f.Bottleneck(); l != nil {
		return l.Name()
	}
	return ""
}
