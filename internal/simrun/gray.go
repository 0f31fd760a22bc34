// Gray-failure mitigation: speculative re-execution and hedged transfers
// (DESIGN.md, "Gray failures and speculation"). A gray failure is quiet: the
// worker heartbeats on time while its compute rate has silently collapsed,
// or a link delivers a tenth of its provisioned bandwidth without failing.
// The plug-in reacts to the adaptive detector's slow-suspicions
// (fault/adaptive.go): a suspected worker stops being fed new tasks, its
// longest-running task is cloned to the least-loaded healthy worker (first
// finisher wins; the loser's work is SpeculativeWastedSec), and a transfer
// whose goodput falls below a fraction of the fleet's running average races
// a second pull from the next-best replica. Both are budget-capped.
package simrun

import (
	"math/rand"

	"frieda/internal/cloud"
	"frieda/internal/netsim"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
)

// GrayConfig selects gray-failure mitigation. Requires Config.Detection:
// progress watermarks ride the heartbeat channel, and the adaptive detector
// (fault/adaptive.go) always runs with it.
type GrayConfig struct {
	// Speculate clones a slow-suspected worker's longest-running task to
	// the least-loaded healthy worker; first finisher wins and the loser is
	// cancelled.
	Speculate bool
	// Hedge launches a second pull from the next-best replica when a
	// transfer's observed goodput falls below hedgeFraction x the running
	// average of completed-transfer goodputs; the slower flow is cancelled.
	Hedge bool
}

// Gray mitigation settings, as the stragglers sweep runs them.
const (
	// speculateAfterSec is the minimum compute wall time before a task is
	// eligible for cloning — short tasks finish faster than a clone could
	// help.
	speculateAfterSec = 15
	// maxConcurrentSpeculative caps in-flight clones, the budget that keeps
	// speculation below foreground work.
	maxConcurrentSpeculative = 8
	// hedgeCheckSec is the mean delay before a transfer's goodput check,
	// jittered from hedgeSeed so checks de-synchronise. The jitter RNG is
	// consumed only when Hedge is on.
	hedgeCheckSec = 6
	hedgeSeed     = 41
	// hedgeFraction is the goodput threshold relative to the fleet's
	// exponentially-weighted average. Peer-relative rather than absolute:
	// during a fair-share staging storm every flow is slow together, and
	// none should hedge.
	hedgeFraction = 0.4
	// maxConcurrentHedges caps in-flight hedge flows.
	maxConcurrentHedges = 4
)

// grayHook is the gray-failure plug-in.
type grayHook struct {
	nopHook
	r   *Runner
	cfg GrayConfig
	det *detectHook
	dur *durabilityHook // nil without durability: the master holds every file
	an  *attribHook
	tr  *obs.Tracer
	// races counts in-flight speculative races against the budget.
	races int
	// hedgeRng jitters hedge goodput-check delays; consumed only when
	// Hedge is on.
	hedgeRng *rand.Rand
	// activeHedges counts in-flight hedge flows against the hedge budget.
	activeHedges int
	// xferEwmaBps is the running average goodput of completed transfers,
	// the baseline a hedging decision compares against.
	xferEwmaBps float64
	checks      sim.Arena[hedgeCheck] // where the goodput checks come from
	taskSec     *obs.Histogram
}

func newGray(r *Runner, det *detectHook, dur *durabilityHook, an *attribHook) *grayHook {
	g := &grayHook{r: r, cfg: *r.cfg.Gray, det: det, dur: dur, an: an, tr: r.cfg.Tracer}
	if g.cfg.Hedge {
		g.hedgeRng = rand.New(rand.NewSource(hedgeSeed))
	}
	if m := r.cfg.Metrics; m.Enabled() {
		m.Gauge("slow_suspected", func() float64 {
			if det.d == nil {
				return 0 // sampled at Start, before the detector exists
			}
			return float64(len(det.d.SlowSuspects()))
		})
		m.Gauge("active_speculations", func() float64 { return float64(g.races) })
		m.Gauge("active_hedges", func() float64 { return float64(g.activeHedges) })
		countGauge(m, "stragglers_suspected", &r.res.StragglersSuspected)
		countGauge(m, "speculative_launched", &r.res.SpeculativeLaunched)
		countGauge(m, "speculative_won", &r.res.SpeculativeWon)
		countGauge(m, "hedged_transfers", &r.res.HedgedTransfers)
	}
	g.taskSec = r.cfg.Metrics.Histogram("gray_task_sec",
		[]float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000})
	return g
}

// start wires the adaptive detector's callbacks.
func (g *grayHook) start() {
	d := g.det.d
	d.EnableAdaptive()
	d.OnSlowSuspect(func(string) { g.r.res.StragglersSuspected++ })
	d.OnSlowClear(func(node string) {
		// The worker is healthy again: resume feeding it.
		for _, w := range g.r.workers {
			if w.name == node && !w.Dead {
				g.r.kick(w)
				return
			}
		}
	})
}

// admits holds back a slow-suspected worker: detect-only mitigation keeps
// its current pipeline but feeds it no more work until the suspicion clears.
func (g *grayHook) admits(w *simWorker) bool { return !g.det.d.SlowSuspected(w.name) }

// dispatch records the files att claims, so a cancelled race loser can
// release the claims that never landed.
func (g *grayHook) dispatch(w *simWorker, att *taskAttempt) {
	if !g.r.cfg.Strategy.Fetches() {
		return
	}
	for _, f := range g.r.led.Inputs(att.task) {
		if !w.Held.Has(f) {
			att.claimed = append(att.claimed, f)
		}
	}
}

func (g *grayHook) transfer(s *stageIn, o outcome, _ string) {
	if o == xferStart {
		if g.cfg.Hedge && s.flow != nil {
			g.armHedge(s)
		}
		return
	}
	// Any end of the attempt retires its pending goodput check.
	s.hedgeCheck.Cancel()
	s.hedgeCheck = sim.EventRef{}
	switch {
	case s.hedge == nil:
	case o == xferOK || o == xferCorrupt:
		g.dropHedge(s) // the primary delivered first
	case o == xferAbandoned:
		g.r.cluster.Network().Cancel(s.hedge)
		s.hedge = nil
		g.activeHedges--
		g.r.flowEnded()
	}
	if o == xferOK {
		g.observeGoodput(s.bytes, float64(g.r.eng.Now()-s.startAt))
	}
}

func (g *grayHook) settle(c *Completion) {
	if c.OK {
		g.taskSec.Observe(float64(c.End - c.Start))
	}
}

// SetWorkerSpeed sets vm's compute-rate factor (1 = provisioned speed).
// Pending computes are settled at the old rate and rescheduled at the new
// one, so a mid-task slowdown stretches exactly the remaining work. This is
// the straggler injector's hook: it models gray degradation — CPU
// contention, thermal throttling, a noisy neighbour — not death, so the
// worker keeps heartbeating and keeps its data.
func (r *Runner) SetWorkerSpeed(vm *cloud.VM, factor float64) {
	w := r.worker(vm)
	if w == nil || w.Dead || factor <= 0 || factor == w.speed {
		return
	}
	old := w.speed
	w.speed = factor
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant(w.name, "fault", "speed-change", obs.Args{"factor": factor})
	}
	now := r.eng.Now()
	for att := range w.computing {
		att.workLeft -= float64(now-att.rateSince) * old
		if att.workLeft < 0 {
			att.workLeft = 0
		}
		att.rateSince = now
		att.compute.Cancel()
		att.compute = r.eng.ScheduleHandler(sim.Duration(att.workLeft/factor), att)
	}
}

// computing yields w's attempts whose compute runs (no race loser's), in task order.
func (w *simWorker) computing(yield func(*taskAttempt) bool) {
	for _, f := range w.InFlight() {
		if a := f.Handle; a != nil && a.compute.Pending() && !yield(a) {
			return
		}
	}
}

// tick piggybacks a task-progress watermark on the worker's heartbeat: the
// minimum observed normalized compute rate across its running tasks (work
// completed per wall second; 1.0 = provisioned speed). The minimum, not the
// oldest task's rate: a task that was nearly done when the slowdown hit
// keeps a high lifetime-average rate for a long while, but any task started
// after the slowdown shows the collapsed rate immediately. A suspicion
// verdict may follow synchronously, and while the worker stays suspected
// each report is a fresh chance to speculate under the budget.
func (g *grayHook) tick(w *simWorker) {
	d := g.det.d
	now := g.r.eng.Now()
	rate, seen := 0.0, false
	for a := range w.computing {
		elapsed := float64(now - a.started)
		if elapsed <= 0 {
			continue
		}
		left := a.workLeft - float64(now-a.rateSince)*w.speed
		if left < 0 {
			left = 0
		}
		if ar := (a.workTotal - left) / elapsed; !seen || ar < rate {
			rate, seen = ar, true
		}
	}
	if !seen {
		if len(w.InFlight()) == 0 && d.SlowSuspected(w.name) {
			// An idle worker yields no progress evidence; report neutral so
			// the stale suspicion clears and admission resumes.
			d.ReportProgress(w.name, 1)
		}
		return
	}
	d.ReportProgress(w.name, rate)
	if d.SlowSuspected(w.name) {
		g.maybeSpeculate(w)
	}
}

// race is one speculative race: the suspected primary attempt and its clone
// on a healthy worker. Both attempts point at it while both run; whichever
// side settles first (completion or failure) dissolves it.
type race struct {
	g              *grayHook
	primary, clone *taskAttempt
	pw, cw         *simWorker
}

// maybeSpeculate clones the suspected worker's oldest long-running task to
// the least-loaded healthy worker, within the speculation budget. The clone
// is a full attempt — it fetches whatever inputs its host is missing — and
// races the primary; race.settle resolves whichever side finishes first.
func (g *grayHook) maybeSpeculate(sw *simWorker) {
	r := g.r
	if !g.cfg.Speculate || r.finished || g.races >= maxConcurrentSpeculative {
		return
	}
	now := r.eng.Now()
	var att *taskAttempt
	for a := range sw.computing {
		if a.clone || a.race != nil {
			continue
		}
		if float64(now-a.started) < speculateAfterSec {
			continue
		}
		// Prefer the longest-running attempt — the most stranded work —
		// breaking ties by task index for determinism.
		if att == nil || a.started < att.started ||
			(a.started == att.started && a.task < att.task) {
			att = a
		}
	}
	if att == nil {
		return
	}
	cw := g.speculationTarget(sw)
	if cw == nil {
		return
	}
	r.res.SpeculativeLaunched++
	if g.tr.Enabled() {
		g.tr.Instant(cw.name, "spec", "spec-launched", obs.Args{
			"task": att.task, "suspect": sw.name,
		})
	}
	if ab := g.an.ab; ab.Enabled() {
		// The wait from the primary's compute start to this launch is the
		// detection latency of the slow-suspicion; the clone's own work then
		// chains from the launch as speculation overhead.
		launch := ab.After(att.anStart, attrib.DetectionLatency, "spec-launch", sw.name)
		g.an.cause = ab.After(launch, attrib.SpeculationOverhead, "spec-dispatch", cw.name)
	}
	r.led.Clone(&cw.Worker, att.task) // speculation may oversubscribe the pipeline, by budget
	catt := r.fetchAndRun(cw, att.task)
	catt.clone = true
	if h := cw.Handle(att.task); h == nil || *h != catt {
		// The clone's fetch failed at once (its input is lost) and the
		// clone has settled: there is nothing left to race.
		return
	}
	rc := &race{g: g, primary: att, pw: sw, clone: catt, cw: cw}
	att.race, catt.race = rc, rc
	g.races++
}

// speculationTarget picks the clone's host: the least-loaded live, ready,
// unsuspected worker (registration order on ties).
func (g *grayHook) speculationTarget(sw *simWorker) *simWorker {
	var best *simWorker
	for _, o := range g.r.workers {
		if o == sw || !o.Ready || !o.Live() || g.det.d.SlowSuspected(o.name) || g.det.d.Suspected(o.name) {
			continue
		}
		if best == nil || len(o.InFlight()) < len(best.InFlight()) {
			best = o
		}
	}
	return best
}

// settle resolves one side of the race reaching taskDone. It returns true
// when the event was absorbed: this side failed (worker death, lost fetch,
// read error) while its twin still runs, so the twin owns the task's fate
// and no terminal or retry bookkeeping happens here. On a win it cancels
// the losing twin and returns false — the winner proceeds through normal
// terminal accounting, first finisher wins.
func (rc *race) settle(att *taskAttempt, ok bool) bool {
	rc.primary.race, rc.clone.race = nil, nil
	rc.g.races--
	other, ow := rc.clone, rc.cw
	if att == rc.clone {
		other, ow = rc.primary, rc.pw
	}
	if !ok {
		return true
	}
	if att == rc.clone {
		rc.g.r.res.SpeculativeWon++
	}
	rc.g.cancel(ow, other)
	return false
}

// cancel kills a race's losing attempt: its transfer is abandoned
// (un-claiming files that never landed), its compute cancelled and the
// elapsed effort accounted as SpeculativeWastedSec, its core and pipeline
// slot freed, and a Cancelled completion recorded so the Gantt can render
// the discarded lane.
func (g *grayHook) cancel(w *simWorker, att *taskAttempt) {
	r := g.r
	att.cancelled = true
	now := r.eng.Now()
	wasted := 0.0
	if att.stage != nil {
		wasted = float64(now - att.stage.startAt)
		r.abandonStage(att.stage)
		att.stage = nil
		for _, f := range att.claimed {
			if !r.replicas.HasID(f, w.node) {
				w.Held.Remove(f)
			}
		}
	}
	if att.compute.Pending() {
		wasted = float64(now - att.started)
		att.compute.Cancel()
		att.compute = sim.EventRef{}
		r.computeEnded()
		w.cores.Release()
	}
	r.res.SpeculativeWastedSec += wasted
	r.led.Settle(&w.Worker, att.task, float64(now)) // refused on a dead worker: Kill has it
	r.res.Completions = append(r.res.Completions, Completion{
		Task: att.task, Worker: w.name, Start: att.started, End: now,
		Attempt: r.led.Attempts(att.task) + 1, Speculative: true, Cancelled: true,
	})
	r.onCompute(w, att, runCancelled)
	if !w.Dead {
		r.kick(w)
	}
}

// observeGoodput folds a completed transfer's goodput into the fleet
// average the hedging threshold compares against.
func (g *grayHook) observeGoodput(bytes, elapsed float64) {
	if elapsed <= 0 {
		return
	}
	bps := bytes * 8 / elapsed
	if g.xferEwmaBps == 0 {
		g.xferEwmaBps = bps
		return
	}
	g.xferEwmaBps = 0.8*g.xferEwmaBps + 0.2*bps
}

// armHedge schedules the goodput check for a transfer attempt. If, at check
// time, the primary flow is still the one running and its observed goodput
// has fallen below the threshold, a hedge flow races it from the next-best
// replica: whichever delivers first wins and the other is cancelled with
// its undelivered bytes refunded. The check delay is jittered so a burst of
// simultaneous transfers doesn't hedge in lockstep. If both racing flows
// are killed by link faults (the primary's interrupt handler defers to a
// live hedge), the hedge's handler resumes the transfer's retry ladder.
func (g *grayHook) armHedge(s *stageIn) {
	r, c := g.r, g.checks.New()
	*c = hedgeCheck{g: g, s: s, primary: s.flow.ID(), src: s.src, started: r.eng.Now()}
	delay := hedgeCheckSec * (0.75 + 0.5*g.hedgeRng.Float64())
	s.hedgeCheck = r.eng.ScheduleHandler(sim.Duration(delay), c)
}

// hedgeCheck is one transfer attempt's pending goodput check (armHedge):
// the handler of its event and what it measures — the attempt's flow (by
// ID: the network reuses a flow's record once the flow has ended), that
// flow's source and its start.
type hedgeCheck struct {
	g       *grayHook
	s       *stageIn
	primary uint64
	src     *cloud.VM
	started sim.Time
}

// Fire runs the check, launching the hedge flow if the primary is still
// running below the goodput threshold.
func (c *hedgeCheck) Fire() {
	g, s, r := c.g, c.s, c.g.r
	w := s.w
	s.hedgeCheck = sim.EventRef{}
	if s.abandoned || r.finished || w.Dead || s.flow == nil || s.flow.ID() != c.primary || s.hedge != nil {
		return
	}
	if g.activeHedges >= maxConcurrentHedges || g.xferEwmaBps <= 0 {
		return
	}
	elapsed := float64(r.eng.Now() - c.started)
	if elapsed <= 0 || s.flow.Delivered()*8/elapsed >= hedgeFraction*g.xferEwmaBps {
		return
	}
	// The hedge's source: the best holder other than the primary's source,
	// else the master if it is not that source and still holds the files;
	// without one there is no hedge.
	src2 := r.master
	if o := r.bestHolder(s.files, w, c.src); o != nil {
		src2 = o.vm
	} else if c.src == r.master || !(g.dur == nil || g.dur.masterHolds(s.files)) {
		return
	}
	g.activeHedges++
	r.res.HedgedTransfers++
	if g.tr.Enabled() {
		g.tr.Instant(s.track, "spec", "hedge-launched", obs.Args{"src": src2.Name()})
	}
	r.flowStarted()
	r.res.BytesMoved += s.remaining
	if ab := g.an.ab; ab.Enabled() {
		s.anHedge = ab.After(s.anCause, attrib.DetectionLatency, "hedge-launch", src2.Name())
	}
	s.hedge = r.cluster.Transfer(src2, w.vm, s.remaining, &hedge{g: g, s: s, src: src2})
}

// hedge owns a hedge flow racing a stage's primary flow from src.
type hedge struct {
	g   *grayHook
	s   *stageIn
	src *cloud.VM
}

// FlowDone delivers the stage: the hedge won the race, so the primary is
// dropped.
func (h *hedge) FlowDone(f *netsim.Flow) {
	g, s, r := h.g, h.s, h.g.r
	r.flowEnded()
	s.hedge = nil
	g.activeHedges--
	if s.flow != nil {
		r.res.BytesMoved -= s.flow.Remaining()
		r.cluster.Network().Cancel(s.flow)
		s.flow = nil
		r.flowEnded()
	}
	// The delivery descends from the hedge-launch decision, not the
	// primary attempt it raced past.
	s.anCause = s.anHedge
	r.arrive(s, h.src, f)
}

// FlowInterrupted settles a link fault killing the hedge: the primary
// carries on alone — unless it already died deferring to this hedge, in
// which case the retry ladder resumes with the full remaining payload.
func (h *hedge) FlowInterrupted(f *netsim.Flow, delivered float64) {
	g, s, r := h.g, h.s, h.g.r
	remaining := f.Bytes()
	r.flowEnded()
	s.hedge = nil
	g.activeHedges--
	r.res.BytesMoved -= remaining - delivered
	if s.abandoned {
		return
	}
	if s.flow == nil {
		r.retryAfter(s, remaining, "retries-exhausted")
	}
}

// dropHedge cancels the losing hedge flow after the primary delivered
// first, refunding its undelivered bytes.
func (g *grayHook) dropHedge(s *stageIn) {
	h := s.hedge
	s.hedge = nil
	g.activeHedges--
	g.r.res.BytesMoved -= h.Remaining()
	g.r.cluster.Network().Cancel(h)
	g.r.flowEnded()
}
