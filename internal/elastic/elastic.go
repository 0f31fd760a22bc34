// Package elastic implements FRIEDA's elasticity (Section V-A "Elastic"):
// worker membership changes at run time. The paper's prototype routes
// additions and removals through the controller manually; the Autoscaler
// here implements the announced future work — transparent scaling driven by
// observed load.
package elastic

import (
	"fmt"

	"frieda/internal/sim"
)

// Signal is the load observation the autoscaler polls: pending work and
// currently available capacity.
type Signal struct {
	// QueuedTasks is the number of tasks awaiting dispatch.
	QueuedTasks int
	// BusySlots and TotalSlots describe current occupancy.
	BusySlots, TotalSlots int
	// Workers is the live worker count.
	Workers int
}

// Utilisation returns busy/total (1.0 when no slots exist, so an empty
// cluster scales up).
func (s Signal) Utilisation() float64 {
	if s.TotalSlots == 0 {
		return 1
	}
	return float64(s.BusySlots) / float64(s.TotalSlots)
}

// Decision is the autoscaler's recommendation for one poll.
type Decision int

const (
	// Hold keeps the current size.
	Hold Decision = iota
	// ScaleUp requests one more worker.
	ScaleUp
	// ScaleDown requests removing one worker.
	ScaleDown
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case ScaleUp:
		return "scale-up"
	case ScaleDown:
		return "scale-down"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Policy is a watermark autoscaling policy.
type Policy struct {
	// MinWorkers and MaxWorkers bound the fleet.
	MinWorkers, MaxWorkers int
	// HighQueuePerSlot triggers scale-up when queued tasks per slot exceed
	// it (default 2).
	HighQueuePerSlot float64
	// LowUtilisation triggers scale-down when both utilisation and queue
	// are below watermarks (default 0.3).
	LowUtilisation float64
	// CooldownSec is the minimum time between actions (default 30).
	CooldownSec float64
}

// Validate checks and defaults the policy.
func (p *Policy) Validate() error {
	if p.MinWorkers < 1 {
		return fmt.Errorf("elastic: MinWorkers %d < 1", p.MinWorkers)
	}
	if p.MaxWorkers < p.MinWorkers {
		return fmt.Errorf("elastic: MaxWorkers %d < MinWorkers %d", p.MaxWorkers, p.MinWorkers)
	}
	if p.HighQueuePerSlot == 0 {
		p.HighQueuePerSlot = 2
	}
	if p.LowUtilisation == 0 {
		p.LowUtilisation = 0.3
	}
	if p.CooldownSec == 0 {
		p.CooldownSec = 30
	}
	if p.HighQueuePerSlot < 0 || p.LowUtilisation < 0 || p.LowUtilisation > 1 || p.CooldownSec < 0 {
		return fmt.Errorf("elastic: invalid watermarks")
	}
	return nil
}

// Decide applies the watermarks to one observation.
func (p Policy) Decide(s Signal) Decision {
	if s.Workers < p.MinWorkers {
		return ScaleUp
	}
	slots := s.TotalSlots
	if slots == 0 {
		slots = 1
	}
	queuePerSlot := float64(s.QueuedTasks) / float64(slots)
	if queuePerSlot > p.HighQueuePerSlot && s.Workers < p.MaxWorkers {
		return ScaleUp
	}
	if s.Utilisation() < p.LowUtilisation && queuePerSlot == 0 && s.Workers > p.MinWorkers {
		return ScaleDown
	}
	return Hold
}

// Actions connects decisions to the cluster: the controller's add/remove
// worker paths.
type Actions interface {
	// Observe samples current load.
	Observe() Signal
	// AddWorker provisions and attaches one worker.
	AddWorker() error
	// RemoveWorker drains one worker: it takes nothing new, and is released
	// — shut down — once its in-flight work settles.
	RemoveWorker() error
}

// Autoscaler polls an Actions on virtual time and applies a Policy.
type Autoscaler struct {
	eng      *sim.Engine
	policy   Policy
	actions  Actions
	interval sim.Duration
	timer    *sim.Timer
	lastAct  sim.Time
	acted    bool

	// Decisions records the trace of non-Hold actions for reports.
	Decisions []struct {
		At       sim.Time
		Decision Decision
	}
}

// NewAutoscaler validates the policy and builds a stopped autoscaler.
func NewAutoscaler(eng *sim.Engine, policy Policy, actions Actions, pollEverySec float64) (*Autoscaler, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if pollEverySec <= 0 {
		return nil, fmt.Errorf("elastic: poll interval %v", pollEverySec)
	}
	a := &Autoscaler{eng: eng, policy: policy, actions: actions, interval: sim.Duration(pollEverySec)}
	a.timer = sim.NewTimer(eng, a.tick)
	return a, nil
}

// Start begins polling.
func (a *Autoscaler) Start() { a.timer.Reset(a.interval) }

// Stop halts polling.
func (a *Autoscaler) Stop() { a.timer.Stop() }

// tick evaluates one observation and reschedules.
func (a *Autoscaler) tick() {
	defer a.timer.Reset(a.interval)
	now := a.eng.Now()
	if a.acted && float64(now-a.lastAct) < a.policy.CooldownSec {
		return
	}
	sig := a.actions.Observe()
	d := a.policy.Decide(sig)
	if d == Hold {
		return
	}
	var err error
	switch d {
	case ScaleUp:
		err = a.actions.AddWorker()
	case ScaleDown:
		err = a.actions.RemoveWorker()
	}
	if err != nil {
		return // provider refused (capacity, etc.); try next poll
	}
	a.acted = true
	a.lastAct = now
	a.Decisions = append(a.Decisions, struct {
		At       sim.Time
		Decision Decision
	}{now, d})
}
