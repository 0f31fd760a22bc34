package simrun

import (
	"slices"

	"frieda/internal/fault"
	"frieda/internal/netsim"
)

// Heartbeat detection timing, as every detecting experiment (netfail,
// durability, stragglers, masterfail) runs it: a worker beats every
// heartbeatSec and is suspected after detectTimeoutSec of silence — three
// beats, so one lost beat is never a miss.
const (
	heartbeatSec     = 5
	detectTimeoutSec = 15
)

// detectHook runs the suspect→confirm heartbeat detector between the
// master and each worker (Config.Detection); declaration isolates the
// worker exactly as a cloud-level VM failure does. Each heartbeat that
// reaches the master is a tick event for the other plug-ins.
type detectHook struct {
	nopHook
	r *Runner
	d *fault.Detector
}

func (h *detectHook) start() {
	r := h.r
	h.d = fault.NewDetectorK(r.eng, detectTimeoutSec, max(r.cfg.Detection.K, 1), func(node string) {
		for _, w := range r.workers {
			if w.name == node {
				r.workerDied(w)
				return
			}
		}
	})
	h.d.SetTracer(r.cfg.Tracer)
	for _, w := range r.workers {
		h.join(w)
	}
}

// join watches the worker and starts its heartbeat loop. A heartbeat only
// reaches the master while the worker's network path is up, so link faults
// surface as missed deadlines — the false-positive source the K > 1
// suspicion ladder exists to absorb.
func (h *detectHook) join(w *simWorker) {
	r := h.r
	h.d.Watch(w.name)
	var beat func()
	beat = func() {
		if w.Dead || r.finished {
			return
		}
		if h.pathUp(w) {
			h.d.Heartbeat(w.name)
			for _, o := range r.hooks {
				o.tick(w)
			}
		}
		r.eng.Schedule(heartbeatSec, beat)
	}
	r.eng.Schedule(heartbeatSec, beat)
}

// pathUp reports whether the worker's control channel to the master is
// usable in both directions (no failed link on either transfer path).
func (h *detectHook) pathUp(w *simWorker) bool {
	c, m := h.r.cluster, h.r.master
	var route [netsim.MaxRoute]*netsim.Link
	if slices.ContainsFunc(c.AppendTransferPath(route[:0], w.vm, m), (*netsim.Link).Failed) {
		return false
	}
	return !slices.ContainsFunc(c.AppendTransferPath(route[:0], m, w.vm), (*netsim.Link).Failed)
}

func (h *detectHook) workerGone(w *simWorker, _ []int32) { h.d.Stop(w.name) }

// finish disarms the watchdog timers so an idle engine can drain (heartbeat
// loops stop themselves on r.finished) and reports the transitions.
func (h *detectHook) finish() {
	for _, w := range h.r.workers {
		h.d.Stop(w.name)
	}
	h.r.res.Detections = h.d.Transitions()
}
