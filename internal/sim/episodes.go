package sim

import (
	"math"
	"math/rand"
)

// Exp draws an exponential duration with the given mean from rng. It is the
// one fault clock: every seeded injector's up-times and outages come from
// here, so equal seeds give equal schedules everywhere.
func Exp(rng *rand.Rand, mean float64) Duration {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return Duration(-mean * math.Log(u))
}

// Edge applies target i's edge — down (an outage starts) or up (it ends) —
// and returns the mean of the period the edge starts: the outage after a
// down edge, the up-time after an up edge.
type Edge func(i int, down bool) (nextMean float64)

// Episodes is a seeded up/down schedule over n targets: each target
// alternates exponential up-times and outages on virtual time, and the
// schedule's edge callback applies what each edge means. The next period
// is drawn from the caller's rng right after its edge is applied, so
// schedules that share one rng draw in event order. An outage whose mean is
// 0 ends at once: the up edge follows the down edge with no draw and no
// event (a disk death, whose fresh media is as mortal as the old).
type Episodes struct {
	eng     *Engine
	rng     *rand.Rand
	edge    Edge
	targets []episode
	stopped bool
}

// episode is one target's place in the schedule and the handler of its
// next edge.
type episode struct {
	s    *Episodes
	i    int
	down bool
	ev   EventRef
}

// NewEpisodes returns a schedule over n targets drawing from rng. No target
// is armed yet; Arm starts each one.
func NewEpisodes(eng *Engine, rng *rand.Rand, n int, edge Edge) *Episodes {
	s := &Episodes{eng: eng, rng: rng, edge: edge, targets: make([]episode, n)}
	for i := range s.targets {
		s.targets[i] = episode{s: s, i: i}
	}
	return s
}

// Arm schedules target i's first down edge after an up-time drawn with mean
// upMean.
func (s *Episodes) Arm(i int, upMean float64) {
	t := &s.targets[i]
	t.ev = s.eng.ScheduleHandler(Exp(s.rng, upMean), t)
}

// Stop disarms the schedule: pending edges leave the queue, so an idle
// engine can drain, and an edge whose callback stops the schedule arms no
// successor. Targets mid-outage stay down; their owner cleans up.
func (s *Episodes) Stop() {
	s.stopped = true
	for i := range s.targets {
		s.targets[i].ev.Cancel()
	}
}

// Fire applies the target's next edge and schedules the one after it.
func (t *episode) Fire() {
	s := t.s
	t.down = !t.down
	mean := s.edge(t.i, t.down)
	if t.down && mean == 0 {
		t.down = false
		mean = s.edge(t.i, false)
	}
	if !s.stopped {
		t.ev = s.eng.ScheduleHandler(Exp(s.rng, mean), t)
	}
}
