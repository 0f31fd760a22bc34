package simrun

import (
	"fmt"

	"frieda/internal/cloud"
	"frieda/internal/elastic"
)

// DrainWorker gracefully removes the least-loaded live worker: it receives
// no new tasks, finishes what it has, and is released once that settles.
// The last live worker cannot be drained.
func (r *Runner) DrainWorker() error {
	if r.LiveWorkers() <= 1 {
		return fmt.Errorf("simrun: refusing to drain the last live worker")
	}
	var victim *simWorker
	for _, w := range r.workers {
		if w.Live() && (victim == nil || len(w.InFlight()) < len(victim.InFlight())) {
			victim = w
		}
	}
	r.led.Drain(&victim.Worker)
	r.gen++ // worker set changed: templates re-derive
	r.kickAll()
	return nil
}

// ScalerActions adapts a simulation run to the elastic.Autoscaler: the
// observe/add/remove surface the paper's controller exposes, backed by the
// cloud provisioner. New VMs honour boot latency; removals drain.
type ScalerActions struct {
	Cluster *cloud.Cluster
	Runner  *Runner
	// Instance is the flavour provisioned on scale-up.
	Instance cloud.InstanceType
}

// Observe implements elastic.Actions.
func (s *ScalerActions) Observe() elastic.Signal {
	busy, total := s.Runner.SlotStats()
	return elastic.Signal{
		QueuedTasks: s.Runner.QueueLen(),
		BusySlots:   busy,
		TotalSlots:  total,
		Workers:     s.Runner.LiveWorkers(),
	}
}

// AddWorker implements elastic.Actions: provision one VM and attach it when
// it boots.
func (s *ScalerActions) AddWorker() error {
	vms, err := s.Cluster.Provision(1, s.Instance)
	if err != nil {
		return err
	}
	vm := vms[0]
	s.Cluster.OnReadyOnce(vm, func() { s.Runner.AddWorker(vm) })
	return nil
}

// RemoveWorker implements elastic.Actions.
func (s *ScalerActions) RemoveWorker() error {
	return s.Runner.DrainWorker()
}
