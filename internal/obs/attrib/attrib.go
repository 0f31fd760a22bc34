// Package attrib is the causal critical-path attribution engine: a typed
// causal-graph recorder on the virtual clock plus a longest-path solver that
// bins every second of a run's makespan into a blame category.
//
// The obs layer (tracer + metrics) answers *what* happened; this package
// answers *why the run took as long as it did*. simrun emits a typed causal
// edge for every completion it settles — a task attempt depends on its
// dispatch, a dispatch on the event that freed the slot, a transfer attempt
// on replica availability and link bandwidth, a retry on its backoff timer,
// a speculative clone on the slow-suspect signal — forming a DAG whose nodes
// are timestamped instants. Because the clock is virtual and event delivery
// deterministic, each node's timestamp is exact, so the DAG's longest path
// is not a sampled estimate but the literal chain of waits that produced the
// final completion. Walking that chain backward from run end telescopes
// segment spans t(to)−t(from) into exactly the makespan, which is the
// package's core invariant: blame categories sum to makespan within 1e-6 s.
//
// A nil *Recorder disables everything at one branch per call site, the same
// discipline as a nil obs.Tracer: recording never schedules events, consumes
// randomness, or mutates simulation state, so an attributed run is
// event-for-event identical to an unattributed one.
package attrib

import (
	"math"
	"sort"

	"frieda/internal/sim"
)

// Category is a blame bin for critical-path seconds.
type Category uint8

const (
	// Compute is time an attempt spent executing at provisioned speed
	// (including modelled local-disk reads charged into the task duration).
	Compute Category = iota
	// NetworkTransfer is time a payload spent crossing the network.
	NetworkTransfer
	// QueueWait is time between the event that made work runnable and the
	// moment it started (admission wait, core wait, dispatch latency).
	QueueWait
	// DetectionLatency is time waiting for a detector verdict: suspect to
	// declaration, or primary dispatch to slow-suspect speculation signal.
	DetectionLatency
	// RetryBackoff is time parked in retry backoff timers (including the
	// master's connect-timeout after an unrecoverable fetch).
	RetryBackoff
	// Repair is time waiting on background replica repair: a transfer whose
	// binding dependency was the repair copy that created its source.
	Repair
	// StragglerInflation is the slice of a compute span beyond its
	// provisioned-speed duration — the seconds a gray-degraded worker added.
	StragglerInflation
	// SpeculationOverhead is critical-path time spent launching speculation
	// machinery (clone dispatch after the slow-suspect signal).
	SpeculationOverhead
	// DiskIO is time charged writing received payloads to local media.
	DiskIO
	// MasterOutage is time the critical path spent waiting for a crashed
	// control plane: queued completions, paused dispatch/admission, repair
	// scans held until the master process came back.
	MasterOutage
	// RecoveryReplay is time the restarted master spent reloading its
	// snapshot and replaying the journal before resuming dispatch — the
	// price of the configured recovery cost model.
	RecoveryReplay
	// CtrlPlane is time the critical path spent waiting in the master's
	// per-task decision queue: the modeled cost of scheduling decisions
	// (full scans on template misses, O(1) instantiations on hits)
	// serialised through the single control-plane server.
	CtrlPlane
	// Unattributed is the honest remainder: segments reaching a node the
	// recorder saw no cause for (charged from run start), or explicit
	// zero-information links. A large Unattributed bin means an emission
	// site is missing, not that the solver guessed.
	Unattributed

	// NumCategories bounds Category values; Blame arrays index by Category.
	NumCategories
)

// String names the category as rendered in blame tables.
func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case NetworkTransfer:
		return "network-transfer"
	case QueueWait:
		return "queue-wait"
	case DetectionLatency:
		return "detection-latency"
	case RetryBackoff:
		return "retry/backoff"
	case Repair:
		return "repair"
	case StragglerInflation:
		return "straggler-inflation"
	case SpeculationOverhead:
		return "speculation-overhead"
	case DiskIO:
		return "disk-io"
	case MasterOutage:
		return "master-outage"
	case RecoveryReplay:
		return "recovery-replay"
	case CtrlPlane:
		return "ctrl-plane"
	case Unattributed:
		return "unattributed"
	default:
		return "unknown"
	}
}

// NodeID indexes a recorded node. The zero Recorder's sentinel None flows
// through edge calls harmlessly, so call sites never branch on validity.
type NodeID int32

// None is the invalid node; edges touching it are dropped.
const None NodeID = -1

// node is one timestamped instant in the causal DAG.
type node struct {
	t     sim.Time
	label string
	// firstEdge heads the node's incoming-edge list (index into edges,
	// -1 = none), linked through edge.next. Slice-backed linked lists keep
	// edge emission at zero steady-state allocations.
	firstEdge int32
}

// edge is one typed causal dependency: to happened because of from.
type edge struct {
	from, to NodeID
	cat      Category
	next     int32
	// inflate carries the seconds of this edge's span to charge to
	// StragglerInflation instead of cat (compute edges on slowed workers).
	inflate float64
	// detail annotates the edge for segment rendering (bottleneck link,
	// source replica, worker name).
	detail string
}

// Recorder accumulates the causal DAG for one run. Create with NewRecorder;
// a nil Recorder ignores every call at the cost of one branch.
type Recorder struct {
	eng   *sim.Engine
	nodes []node
	edges []edge
	// taskSec and xferSec collect raw per-task / per-transfer latencies for
	// the exact percentile report.
	taskSec []float64
	xferSec []float64
	report  *Report
}

// NewRecorder returns a recorder stamping nodes with eng's virtual clock.
func NewRecorder(eng *sim.Engine) *Recorder {
	if eng == nil {
		panic("attrib: nil engine")
	}
	return &Recorder{eng: eng}
}

// Enabled reports whether the recorder records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// At records a node labelled label at the current virtual time.
func (r *Recorder) At(label string) NodeID {
	if r == nil {
		return None
	}
	return r.NodeAt(r.eng.Now(), label)
}

// NodeAt records a node at an explicit timestamp — used for causes observed
// after the fact, like a detector's suspect transition recovered at
// declaration time. t must not exceed any later edge target's time.
func (r *Recorder) NodeAt(t sim.Time, label string) NodeID {
	if r == nil {
		return None
	}
	r.nodes = append(r.nodes, node{t: t, label: label, firstEdge: -1})
	return NodeID(len(r.nodes) - 1)
}

// Edge records a typed dependency from → to. Either end being None (or an
// edge that would run backward in time) drops the edge silently, so call
// sites chain causes without validity checks.
func (r *Recorder) Edge(from, to NodeID, cat Category, detail string) {
	r.edgeSplit(from, to, cat, 0, detail)
}

// edgeSplit is Edge with inflateSec seconds of the span re-binned to
// StragglerInflation — the compute-edge form on a slowed worker (AfterSplit).
func (r *Recorder) edgeSplit(from, to NodeID, cat Category, inflateSec float64, detail string) {
	if r == nil || from < 0 || to < 0 || from == to {
		return
	}
	if r.nodes[from].t > r.nodes[to].t {
		return // backward edge: a mis-ordered cause cannot bind
	}
	r.edges = append(r.edges, edge{
		from: from, to: to, cat: cat,
		next: r.nodes[to].firstEdge, inflate: inflateSec, detail: detail,
	})
	r.nodes[to].firstEdge = int32(len(r.edges) - 1)
}

// After records a node at the current time and an edge from its cause in
// one call — the common emission shape.
func (r *Recorder) After(from NodeID, cat Category, label, detail string) NodeID {
	if r == nil {
		return None
	}
	n := r.NodeAt(r.eng.Now(), label)
	r.edgeSplit(from, n, cat, 0, detail)
	return n
}

// AfterSplit is After with straggler inflation split out of the span.
func (r *Recorder) AfterSplit(from NodeID, cat Category, inflateSec float64, label, detail string) NodeID {
	if r == nil {
		return None
	}
	n := r.NodeAt(r.eng.Now(), label)
	r.edgeSplit(from, n, cat, inflateSec, detail)
	return n
}

// ObserveTaskSec records one successful task's latency for the percentile
// report.
func (r *Recorder) ObserveTaskSec(sec float64) {
	if r == nil {
		return
	}
	r.taskSec = append(r.taskSec, sec)
}

// ObserveTransferSec records one completed transfer's latency.
func (r *Recorder) ObserveTransferSec(sec float64) {
	if r == nil {
		return
	}
	r.xferSec = append(r.xferSec, sec)
}

// Segment is one critical-path hop, in time order from run start.
type Segment struct {
	// From and To label the segment's cause and effect nodes.
	From, To string
	// Start and End are the segment's virtual-time bounds in seconds.
	Start, End float64
	// Cat is the blame bin for Sec.
	Cat Category
	// Sec is the span charged to Cat; InflateSec the slice of the same span
	// charged to StragglerInflation. Sec+InflateSec = End-Start.
	Sec, InflateSec float64
	// Detail is the emitting site's annotation (bottleneck link, source).
	Detail string
}

// LatencyStats are exact order statistics over raw samples (nearest-rank
// percentiles; no bucketing error).
type LatencyStats struct {
	Count              int
	P50, P95, P99, Max float64
}

// Report is a solved run attribution.
type Report struct {
	// MakespanSec is t(end) − t(start); Blame sums to it within 1e-6.
	MakespanSec float64
	// Blame is critical-path seconds per category.
	Blame [NumCategories]float64
	// Segments is the full critical path in time order.
	Segments []Segment
	// TaskLatency and TransferLatency summarise the raw latency samples.
	TaskLatency, TransferLatency LatencyStats
	// Nodes and Edges record graph size for the report header.
	Nodes, Edges int
}

// BlameTotalSec sums the blame bins — equal to MakespanSec within 1e-6 by
// construction (telescoping path spans).
func (rep *Report) BlameTotalSec() float64 {
	var s float64
	for _, v := range rep.Blame {
		s += v
	}
	return s
}

// TopSegments returns the n longest critical-path segments, longest first
// (ties broken by earlier start), without mutating Segments.
func (rep *Report) TopSegments(n int) []Segment {
	out := append([]Segment(nil), rep.Segments...)
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := out[i].End-out[i].Start, out[j].End-out[j].Start
		if di != dj {
			return di > dj
		}
		return out[i].Start < out[j].Start
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Solve computes the critical path from start to end and bins it. For each
// node the binding parent is the incoming edge whose cause fires last —
// that edge is what the node actually waited for; every other dependency
// was already satisfied. Walking binding parents from end telescopes the
// spans to t(end)−t(start) exactly; a node with no recorded cause charges
// its lead time from run start to Unattributed, preserving the sum. The
// walk is O(V+E) and deterministic. The report is cached on the recorder
// (see Report) and returned.
func (r *Recorder) Solve(start, end NodeID) *Report {
	if r == nil || start < 0 || end < 0 {
		return nil
	}
	rep := &Report{
		MakespanSec: float64(r.nodes[end].t - r.nodes[start].t),
		Nodes:       len(r.nodes),
		Edges:       len(r.edges),
	}
	// Two backward walks: the first counts the path's segments, so the
	// second fills a slice sized once, from its end.
	n := 0
	for cur := end; cur != start; {
		best, _ := r.binding(cur)
		if best < 0 {
			if float64(r.nodes[cur].t-r.nodes[start].t) != 0 {
				n++ // the orphan's lead time
			}
			break
		}
		n++
		cur = r.edges[best].from
	}
	if n > 0 {
		rep.Segments = make([]Segment, n)
	}
	for cur := end; cur != start; {
		n--
		nd := r.nodes[cur]
		best, bestT := r.binding(cur)
		if best < 0 {
			// Orphan: no recorded cause. Charge its lead time from run start
			// honestly as Unattributed and stop.
			span := float64(nd.t - r.nodes[start].t)
			if span != 0 {
				rep.Segments[n] = Segment{
					From: r.nodes[start].label, To: nd.label,
					Start: float64(r.nodes[start].t), End: float64(nd.t),
					Cat: Unattributed, Sec: span,
				}
				rep.Blame[Unattributed] += span
			}
			break
		}
		e := r.edges[best]
		span := float64(nd.t - bestT)
		inflate := e.inflate
		if inflate < 0 {
			inflate = 0
		}
		if inflate > span {
			inflate = span
		}
		rep.Segments[n] = Segment{
			From: r.nodes[e.from].label, To: nd.label,
			Start: float64(bestT), End: float64(nd.t),
			Cat: e.cat, Sec: span - inflate, InflateSec: inflate,
			Detail: e.detail,
		}
		rep.Blame[e.cat] += span - inflate
		rep.Blame[StragglerInflation] += inflate
		cur = e.from
	}
	rep.TaskLatency = latencyStats(r.taskSec)
	rep.TransferLatency = latencyStats(r.xferSec)
	r.report = rep
	return rep
}

// binding is the edge node cur waited for, -1 for an orphan, and the time
// its cause fired: the incoming edge whose cause fires last. The incoming
// list is in reverse insertion order, and strict > means the
// earliest-inserted of equal-time causes wins — a fixed, deterministic rule.
func (r *Recorder) binding(cur NodeID) (best int32, bestT sim.Time) {
	best = -1
	for ei := r.nodes[cur].firstEdge; ei >= 0; ei = r.edges[ei].next {
		ft := r.nodes[r.edges[ei].from].t
		if best < 0 || ft > bestT {
			best, bestT = ei, ft
		}
	}
	return best, bestT
}

// Report returns the last Solve result (nil before Solve or for a nil
// recorder) — the handle exporters use after the run's engine has drained.
func (r *Recorder) Report() *Report {
	if r == nil {
		return nil
	}
	return r.report
}

// latencyStats computes exact nearest-rank percentiles; samples are copied
// and sorted, the input order is untouched.
func latencyStats(samples []float64) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return LatencyStats{
		Count: len(s),
		P50:   rank(0.50),
		P95:   rank(0.95),
		P99:   rank(0.99),
		Max:   s[len(s)-1],
	}
}
