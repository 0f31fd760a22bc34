// Package fault implements FRIEDA's robustness machinery (Section V-A
// "Robust") on virtual time: heartbeat-based failure detection with a
// suspect→confirm ladder and gray-failure suspicion, plus the seeded
// injectors (stragglers, master crashes) the fault sweeps drive.
package fault

import (
	"fmt"
	"sort"

	"frieda/internal/obs"
	"frieda/internal/sim"
)

// NodeState is a monitored node's liveness level: not the binary dead/alive
// of the published prototype but the suspect→confirm ladder that makes
// detection partition-tolerant. A node that misses one heartbeat deadline
// is only *suspected* — its tasks are not yet requeued, so a short network
// partition does not trigger duplicate execution; declaration (and the
// recovery machinery behind it) waits for K consecutive missed deadlines.
type NodeState int

const (
	// Alive means heartbeats are arriving within the deadline.
	Alive NodeState = iota
	// Suspect means at least one deadline was missed but fewer than K; a
	// heartbeat clears the suspicion.
	Suspect
	// Declared means K consecutive deadlines passed in silence; the node is
	// considered failed and the on-fail callback has run.
	Declared
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Declared:
		return "declared"
	case SlowSuspect:
		return "slow"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// Transition is one recorded detector state change; simulated runs report
// them as simrun.Result.Detections.
type Transition struct {
	Node string
	At   sim.Time
	// State is the state entered: Suspect on the first missed deadline,
	// Declared on the K-th, Alive when a heartbeat clears a suspicion.
	State NodeState
	// Missed is the consecutive missed-deadline count at the transition.
	Missed int
}

// watch is the per-node monitoring state.
type watch struct {
	timer  *sim.Timer
	missed int
}

// Detector is a heartbeat failure detector on virtual time: each node must
// heartbeat within Timeout or it accrues a missed deadline; after one miss
// the node is suspected, after K consecutive misses it is declared failed.
// The controller-master channel of the paper carries exactly this liveness
// information; K = 1 reproduces the prototype's binary
// behaviour, where the first silence is fatal.
type Detector struct {
	eng     *sim.Engine
	timeout sim.Duration
	k       int

	nodes    map[string]*watch
	declared map[string]bool
	onFail   func(node string)

	transitions []Transition
	tracer      *obs.Tracer
	// paused: the detector's owner (the master) is down. Deadline timers
	// are stopped and heartbeats ignored — a dead master neither observes
	// heartbeats nor declares failures.
	paused bool

	// Gray-failure detection (adaptive.go); off until EnableAdaptive.
	adaptive      bool
	awatch        map[string]*adaptiveWatch
	onSlowSuspect func(node string)
	onSlowClear   func(node string)
}

// NewDetectorK builds a detector that suspects a node after one missed
// timeout and declares failure after k consecutive missed timeouts (k = 1:
// declared at the first). onFail runs at declaration time.
func NewDetectorK(eng *sim.Engine, timeout sim.Duration, k int, onFail func(node string)) *Detector {
	if timeout <= 0 {
		panic("fault: non-positive detector timeout")
	}
	if k < 1 {
		panic("fault: detector K below 1")
	}
	return &Detector{
		eng:      eng,
		timeout:  timeout,
		k:        k,
		nodes:    make(map[string]*watch),
		declared: make(map[string]bool),
		onFail:   onFail,
	}
}

// SetTracer attaches an observability tracer (nil detaches): every recorded
// suspect/declare/recover transition also emits an instant event on the
// "detector" track.
func (d *Detector) SetTracer(t *obs.Tracer) { d.tracer = t }

// Watch starts monitoring a node; the first deadline is one timeout from
// now. Watching an already-watched node is a no-op. Watching a node that
// was declared failed clears the declared state and monitors it afresh — a
// replacement worker reusing the name must not inherit its predecessor's
// death certificate.
func (d *Detector) Watch(node string) {
	if _, ok := d.nodes[node]; ok {
		return
	}
	delete(d.declared, node)
	w := &watch{}
	w.timer = sim.NewTimer(d.eng, func() { d.miss(node, w) })
	d.nodes[node] = w
	w.timer.Reset(d.timeout)
}

// Heartbeat records life from a node, pushing its deadline out and clearing
// any suspicion. Heartbeats from declared or unknown nodes are ignored.
func (d *Detector) Heartbeat(node string) {
	if d.paused {
		return
	}
	w, ok := d.nodes[node]
	if !ok || d.declared[node] {
		return
	}
	if d.adaptive {
		d.observeBeat(node)
	}
	if w.missed > 0 {
		w.missed = 0
		d.record(node, Alive, 0)
	}
	w.timer.Reset(d.timeout)
}

// Pause suspends monitoring during a master outage: every per-node
// deadline timer stops and heartbeats are ignored. No suspicion or
// declaration can happen while paused. Pausing twice is a no-op.
func (d *Detector) Pause() {
	if d.paused {
		return
	}
	d.paused = true
	for _, w := range d.nodes {
		w.timer.Stop()
	}
}

// Resume restarts monitoring after an outage with full fresh deadlines and
// cleared suspicion counts — the restarted master has no memory of missed
// beats, so no node can be declared dead merely because the master was.
// Timers re-arm in sorted node order so the event schedule is
// deterministic. Also wipes adaptive heartbeat history: the outage gap
// must not read as a heartbeat-interarrival anomaly.
func (d *Detector) Resume() {
	if !d.paused {
		return
	}
	d.paused = false
	names := make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := d.nodes[n]
		w.missed = 0
		w.timer.Reset(d.timeout)
		if aw, ok := d.awatch[n]; ok {
			aw.hasBeat = false
		}
	}
}

// Stop stops monitoring (graceful departure; no failure declared).
func (d *Detector) Stop(node string) {
	if w, ok := d.nodes[node]; ok {
		w.timer.Stop()
		delete(d.nodes, node)
	}
	d.dropAdaptive(node)
}

// Suspected reports whether node is currently suspected (missed at least
// one deadline but not yet declared).
func (d *Detector) Suspected(node string) bool {
	w, ok := d.nodes[node]
	return ok && w.missed > 0
}

// Transitions returns a copy of every recorded suspect/declare/recover
// transition, in virtual-time order.
func (d *Detector) Transitions() []Transition {
	return append([]Transition(nil), d.transitions...)
}

// miss handles one expired deadline.
func (d *Detector) miss(node string, w *watch) {
	w.missed++
	if w.missed >= d.k {
		d.declare(node, w.missed)
		return
	}
	if w.missed == 1 {
		d.record(node, Suspect, 1)
	}
	w.timer.Reset(d.timeout)
}

// declare marks the node failed and fires the callback.
func (d *Detector) declare(node string, missed int) {
	if d.declared[node] {
		return
	}
	d.declared[node] = true
	delete(d.nodes, node)
	d.dropAdaptive(node)
	d.record(node, Declared, missed)
	if d.onFail != nil {
		d.onFail(node)
	}
}

// record appends a transition stamped with the current virtual time.
func (d *Detector) record(node string, s NodeState, missed int) {
	d.transitions = append(d.transitions, Transition{
		Node: node, At: d.eng.Now(), State: s, Missed: missed,
	})
	if d.tracer.Enabled() {
		d.tracer.Instant("detector", "fault", s.String(), obs.Args{"node": node, "missed": missed})
	}
}
