// Adaptive gray-failure detection: a φ-accrual-style suspicion score over
// heartbeat interarrivals plus per-node task-progress watermarks. The
// suspect→confirm ladder in fault.go only sees silence — a node that
// heartbeats on time while computing at a tenth of its provisioned rate is
// invisible to it. The adaptive layer suspects such nodes as *slow* without
// ever declaring them dead: slow-suspicion gates mitigation (speculative
// re-execution, hedged transfers) in internal/simrun, and a recovered
// report clears it. Everything here is pull-driven by Heartbeat and
// ReportProgress calls, consumes no randomness, and schedules no events, so
// a detector without EnableAdaptive is byte-identical to the PR 2 one.
package fault

import (
	"math"
	"sort"

	"frieda/internal/sim"
)

// SlowSuspect is the gray-failure liveness level: the node heartbeats (it
// is not Suspect or Declared) but its observed progress or heartbeat-jitter
// score marks it as a straggler. Kept out of the fail-stop ladder —
// SlowSuspect never escalates to Declared by itself.
const SlowSuspect NodeState = 3

// The gray-failure detection ladder.
const (
	// phiWindow is how many recent heartbeat interarrivals are kept per node
	// for the φ score.
	phiWindow = 8
	// phiSuspect is the φ threshold above which heartbeat jitter alone marks
	// a node slow (< 1% likely under the observed interarrival distribution).
	phiSuspect = 2.0
	// slowFactor marks a progress report slow when the node's observed rate
	// falls below slowFactor x the peer median rate.
	slowFactor = 0.5
	// minSlowReports is how many consecutive slow reports accrue before the
	// node is slow-suspected — one noisy watermark must not trigger
	// speculation.
	minSlowReports = 3
)

// adaptiveWatch is the per-node gray-detection state.
type adaptiveWatch struct {
	lastBeat sim.Time
	hasBeat  bool
	inter    [phiWindow]float64 // interarrival ring buffer
	next     int
	count    int

	rate     float64 // latest reported progress rate
	hasRate  bool
	slowRuns int  // consecutive slow reports
	slow     bool // currently slow-suspected
}

// EnableAdaptive turns on gray-failure detection. Must be called before the
// first Heartbeat for interarrival windows to be complete, but late enabling
// is safe — scores just warm up later.
func (d *Detector) EnableAdaptive() {
	d.adaptive = true
	if d.awatch == nil {
		d.awatch = make(map[string]*adaptiveWatch)
	}
}

// OnSlowSuspect registers a callback run when a node is first marked slow.
func (d *Detector) OnSlowSuspect(fn func(node string)) { d.onSlowSuspect = fn }

// OnSlowClear registers a callback run when a slow suspicion clears.
func (d *Detector) OnSlowClear(fn func(node string)) { d.onSlowClear = fn }

// aw returns (creating if needed) the node's adaptive state.
func (d *Detector) aw(node string) *adaptiveWatch {
	w, ok := d.awatch[node]
	if !ok {
		w = &adaptiveWatch{}
		d.awatch[node] = w
	}
	return w
}

// observeBeat records a heartbeat interarrival for the φ window. Called
// from Heartbeat when adaptive detection is on.
func (d *Detector) observeBeat(node string) {
	w := d.aw(node)
	now := d.eng.Now()
	if w.hasBeat {
		w.inter[w.next] = float64(now - w.lastBeat)
		w.next = (w.next + 1) % len(w.inter)
		if w.count < len(w.inter) {
			w.count++
		}
	}
	w.lastBeat = now
	w.hasBeat = true
}

// Phi returns the node's φ-accrual suspicion score: -log10 of the
// probability that the current heartbeat silence would last this long under
// an exponential model fitted to the observed interarrival window. 0 means
// no cause for suspicion (fresh beat, or not enough samples); 1 means the
// silence is ~10% likely, 2 means ~1%, and so on, so thresholds compose
// multiplicatively rather than as brittle absolute timeouts.
func (d *Detector) Phi(node string) float64 {
	if !d.adaptive {
		return 0
	}
	w, ok := d.awatch[node]
	if !ok || !w.hasBeat || w.count < 2 {
		return 0
	}
	mean := 0.0
	for i := 0; i < w.count; i++ {
		mean += w.inter[i]
	}
	mean /= float64(w.count)
	if mean <= 0 {
		return 0
	}
	silence := float64(d.eng.Now() - w.lastBeat)
	// P(X > t) = exp(-t/mean); φ = -log10 P = (t/mean)·log10(e).
	return silence / mean * math.Log10(math.E)
}

// ReportProgress feeds one task-progress watermark for a node: rate is the
// node's observed normalized compute rate (work completed per second of
// wall clock, 1.0 = provisioned speed). The node accrues slow-suspicion
// when its rate stays below slowFactor x the peer median for minSlowReports
// consecutive reports, or when its φ score crosses phiSuspect; a healthy
// report clears the run. Reports for declared or unknown-to-adaptive
// detectors are ignored.
func (d *Detector) ReportProgress(node string, rate float64) {
	if !d.adaptive || d.declared[node] || d.paused {
		return
	}
	w := d.aw(node)
	w.rate = rate
	w.hasRate = true

	med, ok := d.peerMedianRate()
	slowNow := ok && rate < slowFactor*med
	if d.Phi(node) > phiSuspect {
		slowNow = true
	}
	if slowNow {
		w.slowRuns++
		if !w.slow && w.slowRuns >= minSlowReports {
			w.slow = true
			d.record(node, SlowSuspect, w.slowRuns)
			if d.onSlowSuspect != nil {
				d.onSlowSuspect(node)
			}
		}
		return
	}
	w.slowRuns = 0
	if w.slow {
		w.slow = false
		d.record(node, Alive, 0)
		if d.onSlowClear != nil {
			d.onSlowClear(node)
		}
	}
}

// peerMedianRate returns the median of the latest reported rates across all
// reporting, undeclared nodes. ok is false below 3 reporters — a straggler
// needs peers to stand out against.
func (d *Detector) peerMedianRate() (med float64, ok bool) {
	rates := make([]float64, 0, len(d.awatch))
	for node, w := range d.awatch {
		if w.hasRate && !d.declared[node] {
			rates = append(rates, w.rate)
		}
	}
	if len(rates) < 3 {
		return 0, false
	}
	sort.Float64s(rates)
	mid := len(rates) / 2
	if len(rates)%2 == 1 {
		return rates[mid], true
	}
	return (rates[mid-1] + rates[mid]) / 2, true
}

// SlowSuspected reports whether node is currently slow-suspected.
func (d *Detector) SlowSuspected(node string) bool {
	if !d.adaptive {
		return false
	}
	w, ok := d.awatch[node]
	return ok && w.slow
}

// SlowSuspects returns the currently slow-suspected nodes, sorted.
func (d *Detector) SlowSuspects() []string {
	if !d.adaptive {
		return nil
	}
	var out []string
	for node, w := range d.awatch {
		if w.slow {
			out = append(out, node)
		}
	}
	sort.Strings(out)
	return out
}

// dropAdaptive forgets a node's adaptive state (on Stop or declare) so a
// dead node's stale rate cannot skew the peer median.
func (d *Detector) dropAdaptive(node string) {
	if d.adaptive {
		delete(d.awatch, node)
	}
}
