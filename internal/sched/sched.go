// Package sched is the run lifecycle both executors share: the queue, each
// group's spent attempts, the terminal count, the run's file plan (each
// group's input file ids), each worker's groups in flight, and the rules
// over them — the start and its pre-partition deal, the staging barrier, the
// pick within a worker's window (compute-to-data placement's from the plan
// and what the worker holds), the window's growth, a settle and its
// stale-status rule, a lost attempt, a drain and its release, a death and
// the stall. A Ledger has no clock — each settle brings its time — no I/O,
// no lock and no allocation per task: the real master
// (internal/core) calls it on its event loop, the simulator
// (internal/simrun) on the engine goroutine. Each executor keeps its
// results and I/O, its handle on each group in flight (Worker), and writes
// each worker's Held as files are claimed, land, are lost or are repaired.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"frieda/internal/catalog"
	"frieda/internal/partition"
	"frieda/internal/strategy"
)

// DefaultMaxRetries is the retry budget when the caller sets none.
const DefaultMaxRetries = 2

// MaxSlots is the most slots a worker may join with: its window, slots ×
// Prefetch, then fits the 32 bits it is kept in under any strategy that
// passed Validate.
const MaxSlots = math.MaxInt32 / strategy.MaxPrefetch

// Worker is the ledger's view of a worker, embedded in each executor's own,
// and the one record of its groups in flight, each with the executor's
// handle H: nothing for the master, the attempt for the simulator. The
// ledger writes its flags and its in-flight list; an executor may only clear
// Ready, while the worker re-stages (Arrive sets it again), and write Held
// and the handles. Its list is allocated at its first hand-out.
type Worker[H any] struct {
	// Backlog holds groups dealt to the worker and not yet dispatched.
	Backlog []int
	// Held is the files the worker holds or was sent, by the plan's ids. The
	// executor writes it (claims, landings, losses, repairs), and the
	// compute-to-data pick reads it.
	Held catalog.IDSet
	// Ready: may be dispatched to (Arrive). Draining: finishes what it holds
	// and takes nothing new (Drain). Dead: gone (Kill, Die) or released.
	Ready, Draining, Dead bool
	// flight is the groups handed out and not settled, in group order; nil
	// until the first hand-out, and again once Kill hands it back.
	flight []Flight[H]
	// arrived: counted in Arrived; out: counted out of Live. window is the
	// most groups it may have in flight (strategy's Window of its slots, set
	// at Start, or its slots times the ledger's per while the windows grow),
	// stages its open staging items.
	arrived, out          bool
	slots, window, stages int32
}

// Flight is a group in flight on a worker and the executor's handle on it.
type Flight[H any] struct {
	Group  int
	Handle H
}

// Live reports whether the worker may still take work: neither dead nor
// draining. A worker that is not ready yet is live; it is still staging.
func (w *Worker[H]) Live() bool { return !w.Dead && !w.Draining }

// InFlight is the worker's groups in flight, in group order, for reading.
func (w *Worker[H]) InFlight() []Flight[H] { return w.flight }

// Handle points at the executor's handle on group gi (the zero H until it
// writes one) until w's list next changes; nil if gi is not in flight on w.
func (w *Worker[H]) Handle(gi int) *H {
	if i, ok := w.find(gi); ok {
		return &w.flight[i].Handle
	}
	return nil
}

// find returns where group gi is, or would go, in w's list, and whether it
// is there.
func (w *Worker[H]) find(gi int) (int, bool) {
	return slices.BinarySearchFunc(w.flight, gi, func(f Flight[H], gi int) int { return cmp.Compare(f.Group, gi) })
}

// Ledger is one run's lifecycle: Join every worker as it registers, give it
// the file plan (Plan), and Start the ledger once the groups are known. H is
// the executor's handle on a group in flight (Worker).
type Ledger[H any] struct {
	recover    bool
	maxRetries int
	strat      strategy.Config // in force since Start

	queue    []int   // pending groups (real-time) and requeues
	attempts []int32 // spent attempts per group; nil until Start
	terminal int
	requeues int
	workers  []*Worker[H]
	// The counts Live and Arrived report, and the open staging items.
	live, arrived, stages int
	// windows sums the live workers' windows, for the tail rule (open).
	windows int
	// ceiling is the most groups per slot a window holds (strategy's
	// ForJob); per is every window's groups per slot while they grow
	// (strategy's Adaptive), 0 otherwise; growing: per is still measured
	// (grow), over rounds.
	per, ceiling int32
	growing      bool
	rounds       rounds
	// inputs holds every group's file ids, group gi's at
	// inputs[inputAt[gi]:inputAt[gi+1]] (Plan).
	inputs, inputAt []int32
}

// NewLedger returns an unstarted ledger. Under recover a lost attempt is
// requeued, up to maxRetries times per group (DefaultMaxRetries if ≤ 0).
func NewLedger[H any](recover bool, maxRetries int) *Ledger[H] {
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	return &Ledger[H]{recover: recover, maxRetries: maxRetries}
}

// CheckSlots refuses slots outside [1, MaxSlots]: a worker's window would
// not fit.
func CheckSlots(slots int) error {
	if slots < 1 || slots > MaxSlots {
		return fmt.Errorf("sched: %d slots outside [1, %d]", slots, MaxSlots)
	}
	return nil
}

// Join adds a registering worker that runs slots groups at once, unless
// CheckSlots refuses them.
func (l *Ledger[H]) Join(w *Worker[H], slots int) error {
	if err := CheckSlots(slots); err != nil {
		return err
	}
	w.slots = int32(slots)
	l.size(w)
	l.workers = append(l.workers, w)
	l.live++
	l.windows += int(w.window)
	return nil
}

// size sets w's window from the strategy in force: per groups per slot
// while the windows grow.
func (l *Ledger[H]) size(w *Worker[H]) {
	w.window = int32(l.strat.Window(int(w.slots)))
	if l.per > 0 {
		w.window = w.slots * l.per
	}
}

// Growing reports whether the windows still grow (strategy.Config.Adaptive,
// after Start's ForJob, until grow stops): only then does Settle read its
// time.
func (l *Ledger[H]) Growing() bool { return l.growing }

// Ceiling is the most groups w's window may grow to, clones apart: its
// window unless the windows grow. Executors size what a window fills from
// it. Before Start it is w's slots.
func (l *Ledger[H]) Ceiling(w *Worker[H]) int { return int(w.slots * max(1, l.ceiling)) }

// Plan gives the ledger the run's file plan: group gi's input file ids are
// inputs[at[gi]:at[gi+1]], in the order of its files. The ledger keeps both
// slices and only reads them.
func (l *Ledger[H]) Plan(inputs, at []int32) { l.inputs, l.inputAt = inputs, at }

// Inputs returns group gi's input file ids, from the plan, for reading only.
func (l *Ledger[H]) Inputs(gi int) []int32 { return l.inputs[l.inputAt[gi]:l.inputAt[gi+1]] }

// Start begins the run under s on groups 0..n-1 and sets every window from
// s, a real-time Prefetch of 0 pinned to 1 by s.ForJob for bulk groups.
// Pre-partitioning deals the groups with s's assigner over the live
// workers of workers, in that order (nil: join order), as their backlogs;
// any other kind, or a deal with nobody live, queues them in index order.
// groups() is called only for the deal or by ForJob. s must
// have passed its Validate.
func (l *Ledger[H]) Start(s strategy.Config, n int, groups func() []partition.Group, workers []*Worker[H]) {
	s, ceiling := s.ForJob(n, func() int64 {
		var bytes int64
		for _, g := range groups() {
			bytes += g.Size()
		}
		return bytes
	})
	l.strat, l.ceiling = s, int32(ceiling)
	l.attempts = make([]int32, n)
	l.windows = 0
	l.per, l.growing, l.rounds = 0, s.Adaptive(), rounds{since: -1}
	if l.growing {
		l.per = 1
	}
	for _, w := range l.workers {
		l.size(w)
		if !w.out {
			l.windows += int(w.window)
		}
	}
	if workers == nil {
		workers = l.workers
	}
	live := 0
	for _, w := range workers {
		if w.Live() {
			live++
		}
	}
	if s.Kind != strategy.PrePartition || live == 0 {
		l.queue = slices.Grow(l.queue, n)
		for gi := range n {
			l.queue = append(l.queue, gi)
		}
		return
	}
	assigner, err := strategy.AssignerByName(s.Assigner)
	if err != nil {
		panic("sched: " + err.Error())
	}
	assignment, err := assigner.Assign(groups(), live)
	if err != nil {
		panic("sched: " + err.Error())
	}
	per := assignment.PerWorker()
	for _, w := range workers {
		if w.Live() {
			w.Backlog, per = per[0], per[1:]
		}
	}
}

// Stage opens one staging item to w: data that must land before anything
// runs. While any is open nothing is handed out.
func (l *Ledger[H]) Stage(w *Worker[H]) {
	w.stages++
	l.stages++
}

// Staged closes one of w's staging items — done, or lost with w — and
// reports whether that ended the staging phase. A worker holding no open
// item changes nothing.
func (l *Ledger[H]) Staged(w *Worker[H]) bool {
	if w.stages == 0 {
		return false
	}
	w.stages--
	l.stages--
	return l.stages == 0
}

// Arrive marks w ready: it may be dispatched to.
func (l *Ledger[H]) Arrive(w *Worker[H]) {
	w.Ready = true
	l.arrive(w)
}

func (l *Ledger[H]) arrive(w *Worker[H]) {
	if !w.arrived {
		w.arrived = true
		l.arrived++
	}
}

// leave counts w out of the live workers, once.
func (l *Ledger[H]) leave(w *Worker[H]) {
	if !w.out {
		w.out = true
		l.live--
		l.windows -= int(w.window)
	}
}

// Finished reports whether the ledger started and every group is terminal.
func (l *Ledger[H]) Finished() bool { return l.attempts != nil && l.terminal >= len(l.attempts) }

// Terminal counts groups that reached a terminal state.
func (l *Ledger[H]) Terminal() int { return l.terminal }

// Requeues counts lost attempts that went back on the queue.
func (l *Ledger[H]) Requeues() int { return l.requeues }

// Live counts joined workers that are neither dead nor draining.
func (l *Ledger[H]) Live() int { return l.live }

// Arrived counts joined workers that became ready or died: the ones heard
// from.
func (l *Ledger[H]) Arrived() int { return l.arrived }

// Attempts counts gi's spent attempts.
func (l *Ledger[H]) Attempts(gi int) int { return int(l.attempts[gi]) }

// Queue is the queue in dispatch order, for reading only.
func (l *Ledger[H]) Queue() []int { return l.queue }

// Pending counts groups awaiting dispatch: the queue plus the backlogs of
// workers that are not dead.
func (l *Ledger[H]) Pending() int {
	n := len(l.queue)
	for _, w := range l.workers {
		if !w.Dead {
			n += len(w.Backlog)
		}
	}
	return n
}

// open reports whether w may be handed a group now: no staging item is
// open, and w is ready, live and below its window. Past its slots the tail
// rule holds too. Such a group waits behind w's running ones, so it goes
// out only while the queue holds more groups than the other live workers'
// windows take: taking it leaves each of them a full window. A job's last
// groups then go out one per free slot, as at a window of one, rather than
// wait on one worker while another idles. A lone worker, with nobody to
// take them sooner, pipelines to the end.
func (l *Ledger[H]) open(w *Worker[H]) bool {
	n := int32(len(w.flight))
	return l.stages == 0 && w.Ready && w.Live() && n < w.window &&
		(n < w.slots || len(l.queue) > l.windows-int(w.window))
}

// Next is the pick: w's backlog head, else the queue head — or, under
// compute-to-data placement, the first queued group whose inputs (Plan) are
// all in w.Held, else the head. The group is in flight on w, with the zero
// handle, until Settle. False when w may not take one now (open, with its
// tail rule) or there is none.
func (l *Ledger[H]) Next(w *Worker[H]) (int, bool) {
	if !l.open(w) {
		return 0, false
	}
	var gi int
	switch {
	case len(w.Backlog) > 0:
		gi = popAt(&w.Backlog, 0)
	case len(l.queue) > 0:
		gi = popAt(&l.queue, l.pick(w))
	default:
		return 0, false
	}
	l.hand(w, gi)
	return gi, true
}

// hand puts group gi in flight on w, in group order; w's first hand-out
// allocates its list, the window's Ceiling (no more than the groups), which
// only clones past the window grow. Handing gi twice to w is the executor's
// bug.
func (l *Ledger[H]) hand(w *Worker[H], gi int) {
	i, _ := w.find(gi)
	if w.flight == nil {
		w.flight = make([]Flight[H], 0, min(l.Ceiling(w), len(l.attempts)))
	}
	w.flight = slices.Insert(w.flight, i, Flight[H]{Group: gi})
}

// Head is what a FIFO Next would take for w, without taking it: false
// exactly when Next would be. Under compute-to-data placement Next may take
// a later group of the queue instead.
func (l *Ledger[H]) Head(w *Worker[H]) (int, bool) {
	switch {
	case !l.open(w):
	case len(w.Backlog) > 0:
		return w.Backlog[0], true
	case len(l.queue) > 0:
		return l.queue[0], true
	}
	return 0, false
}

// Clone puts on w a speculative copy of group gi, in flight elsewhere: it
// counts against w's window, which it may pass.
func (l *Ledger[H]) Clone(w *Worker[H], gi int) { l.hand(w, gi) }

// Settle books the end of w's attempt at group gi, at time now (seconds,
// on any clock that does not go back; read only while Growing), whatever
// its outcome, and reports whether it released w: a draining worker that
// holds nothing is marked dead, for the executor to shut down. A group not
// in flight on w — a stale or repeated status, or a dead worker's — is
// refused: settled is false and nothing changes.
func (l *Ledger[H]) Settle(w *Worker[H], gi int, now float64) (settled, released bool) {
	i, ok := w.find(gi)
	if !ok {
		return false, false
	}
	w.flight = slices.Delete(w.flight, i, i+1)
	if l.growing {
		l.grow(now)
	}
	return true, l.release(w)
}

// rounds is what grow measures: the round under way, from the time since
// (-1 before the run's first settle) to last, the time of its latest
// settles, and how many settled after since; the rounds run at per, their
// best rate and their rates' sum; the mean rate at the last per that paid;
// whether per is on test or held, and for how many rounds the next step
// back holds.
type rounds struct {
	since, last     float64
	settles, tries  int
	best, sum, paid float64
	testing         bool
	hold            int
}

// The window rule's constants. A round is at least the live windows' worth
// of settles, and minSettles. A doubled per pays when one of its first
// maxTries rounds reads payRise above the mean of the last per that paid;
// the first step back holds for firstHold rounds.
const (
	minSettles = 8
	maxTries   = 3
	payRise    = 0.05
	firstHold  = 4
)

// grow is the window rule, applied at each settle while the windows grow.
// It measures the run's completions, not a worker's: the workers share the
// master, so one worker's deeper window reads as another's loss. Settles
// at one time (one wake of the master) fall in one round, so a round ends
// at the first settle past its last time.
//
// per starts at 1, held for the run's first round. At the end of a hold,
// its rounds' mean rate is what per paid, and per doubles on test. A round
// on test that reads payRise above what the last per paid pays: per
// doubles again, or, at the ceiling, stays there for good. After maxTries
// rounds that do not, per steps back and is held, for twice as many rounds
// as the hold before, and then doubles on test again: a job's first
// milliseconds run slower at any window, so a doubling that did not pay
// then may pay later. A round is counted in settles, not time: the same
// count costs a slow job as much of its groups as a fast one. Noise — a
// collection, another process taking the processor — only slows a round,
// so the best of a test's rounds is what it reads, and the mean of a
// hold's is the bar. A test's round reads one settle short, its count's
// own error: settles that come in a period of their own can put one more
// or one fewer in a round than its span's share.
func (l *Ledger[H]) grow(now float64) {
	r := &l.rounds
	switch {
	case r.since < 0:
		r.since, r.last, r.hold = now, now, 1
		return
	case now == r.since:
		return
	case now == r.last || r.settles < max(l.windows, minSettles):
		r.settles++
		r.last = now
		return
	}
	span := r.last - r.since
	r.best = max(r.best, float64(r.settles-1)/span)
	r.sum += float64(r.settles) / span
	r.tries++
	r.since, r.last, r.settles = r.last, now, 1
	per := l.per
	switch {
	case !r.testing && r.tries < r.hold:
		return
	case !r.testing, r.best >= r.paid*(1+payRise):
		// A hold ends, or per paid.
		r.paid = r.sum / float64(r.tries)
		per = min(2*per, l.ceiling)
		l.growing = per > l.per
		if !r.testing {
			r.hold = max(firstHold, 2*r.hold)
		}
		r.testing = true
	case r.tries < maxTries:
		return
	default:
		per /= 2
		r.testing = false
	}
	r.best, r.sum, r.tries = 0, 0, 0
	l.per = per
	l.windows = 0
	for _, w := range l.workers {
		l.size(w)
		if !w.out {
			l.windows += int(w.window)
		}
	}
}

// release marks a draining worker that holds nothing dead.
func (l *Ledger[H]) release(w *Worker[H]) bool {
	if !w.Draining || len(w.flight) > 0 {
		return false
	}
	w.Dead = true
	l.arrive(w)
	return true
}

// Succeed books gi's attempt as done: the group is terminal.
func (l *Ledger[H]) Succeed(gi int) {
	l.attempts[gi]++
	l.terminal++
}

// Fail is the lost-task rule: one of gi's attempts failed or died with its
// worker. Under recover with budget left the group is requeued and Fail
// returns true; otherwise the group is terminal, for the caller to record.
func (l *Ledger[H]) Fail(gi int) bool {
	l.attempts[gi]++
	if l.recover && int(l.attempts[gi]) <= l.maxRetries {
		l.requeues++
		l.queue = append(l.queue, gi)
		return true
	}
	l.terminal++
	return false
}

// Drain starts w's scale-in: its backlog returns to the queue. It reports
// whether w, holding nothing, is released at once (Settle).
func (l *Ledger[H]) Drain(w *Worker[H]) bool {
	w.Draining = true
	l.leave(w)
	l.queue = append(l.queue, w.Backlog...)
	w.Backlog = nil
	return l.release(w)
}

// Kill marks w dead without settling its work — the machine is gone — and
// hands back its groups in flight, in group order. Die, the master's
// reaction, follows when the master learns of it.
func (l *Ledger[H]) Kill(w *Worker[H]) []Flight[H] {
	lost := w.flight
	w.flight = nil
	w.Dead = true
	l.leave(w)
	l.arrive(w)
	return lost
}

// Die marks w dead and fails its in-flight groups, in group order, then its
// backlog, returning what became terminal, in that order; after Kill (the
// simulator settles its own attempts, which a clone may outlive) only the
// backlog. Its open staging items stay open: the executor closes them.
func (l *Ledger[H]) Die(w *Worker[H]) []int {
	var lost []int
	for _, f := range l.Kill(w) {
		if !l.Fail(f.Group) {
			lost = append(lost, f.Group)
		}
	}
	for _, gi := range w.Backlog {
		if !l.Fail(gi) {
			lost = append(lost, gi)
		}
	}
	w.Backlog = nil
	return lost
}

// Abandon is the stall rule: while groups are queued and no joined worker
// is live, nobody can take them, so they all become terminal and are
// returned for the caller to record as failed. It does not wait for
// in-flight attempts; one that fails later is abandoned by a later call.
func (l *Ledger[H]) Abandon() []int {
	if len(l.queue) == 0 || l.live > 0 {
		return nil
	}
	q := l.queue
	l.queue = nil
	l.terminal += len(q)
	return q
}

// Forget takes one group off the terminal count: an amnesiac master
// restarted without its record that the group finished.
func (l *Ledger[H]) Forget() { l.terminal-- }

// Rebuild is a restarted master's reconciliation: the backlogs were its
// memory and are gone, and pending becomes the queue.
func (l *Ledger[H]) Rebuild(pending []int) {
	for _, w := range l.workers {
		w.Backlog = nil
	}
	l.queue = pending
}

// pick returns the index in the non-empty queue of the group w takes: under
// compute-to-data placement the first whose inputs are all in w.Held, else
// the head.
func (l *Ledger[H]) pick(w *Worker[H]) int {
	if l.strat.Placement != strategy.ComputeToData {
		return 0
	}
queued:
	for qi, gi := range l.queue {
		for _, id := range l.Inputs(gi) {
			if !w.Held.Has(id) {
				continue queued
			}
		}
		return qi
	}
	return 0
}

// popAt removes and returns (*queue)[idx], keeping the order of the rest.
// The head — every FIFO dispatch — is a re-slice, not a memmove of the whole
// queue; the slice stays valid for append either way.
func popAt(queue *[]int, idx int) int {
	q := *queue
	gi := q[idx]
	if idx == 0 {
		*queue = q[1:]
	} else {
		*queue = append(q[:idx], q[idx+1:]...)
	}
	return gi
}
