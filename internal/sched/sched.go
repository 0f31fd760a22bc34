// Package sched is the scheduling ledger both executors share: the queue,
// each group's spent attempts, the terminal count, and the rules over them —
// the pick, the pre-partition deal, a lost attempt, a drain, a death and the
// stall. A Ledger has no clock, no I/O and no lock: the real master
// (internal/core) calls it on its event loop, the simulator (internal/simrun)
// on the engine goroutine. Each executor keeps its attempt records, results
// and I/O.
package sched

import "slices"

// DefaultMaxRetries is the retry budget when the caller sets none.
const DefaultMaxRetries = 2

// Worker is the ledger's view of a worker, embedded in each executor's own.
type Worker struct {
	// Backlog holds groups dealt to the worker and not yet dispatched.
	Backlog []int
	// Ready: may be dispatched to. Draining: finishes what it holds and
	// takes nothing new. Dead: gone.
	Ready, Draining, Dead bool
}

// Live reports whether the worker may still take work: neither dead nor
// draining. A worker that is not ready yet is live; it is still staging.
func (w *Worker) Live() bool { return !w.Dead && !w.Draining }

// Ledger is one run's scheduling state: Join every worker as it registers,
// and Start the ledger once the groups are known.
type Ledger struct {
	recover    bool
	maxRetries int

	queue    []int   // pending groups (real-time) and requeues
	attempts []int32 // spent attempts per group; nil until Start
	terminal int
	requeues int
	workers  []*Worker
}

// NewLedger returns an unstarted ledger. Under recover a lost attempt is
// requeued, up to maxRetries times per group (DefaultMaxRetries if ≤ 0).
func NewLedger(recover bool, maxRetries int) *Ledger {
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	return &Ledger{recover: recover, maxRetries: maxRetries}
}

// Start sizes the ledger for groups 0..n-1; QueueAll or Deal places them.
func (l *Ledger) Start(n int) { l.attempts = make([]int32, n) }

// QueueAll puts every group on the queue in index order.
func (l *Ledger) QueueAll() {
	l.queue = slices.Grow(l.queue, len(l.attempts))
	for gi := range l.attempts {
		l.queue = append(l.queue, gi)
	}
}

// Join adds a registering worker to the set the stall rule watches.
func (l *Ledger) Join(w *Worker) { l.workers = append(l.workers, w) }

// Finished reports whether the ledger started and every group is terminal.
func (l *Ledger) Finished() bool { return l.attempts != nil && l.terminal >= len(l.attempts) }

// Terminal counts groups that reached a terminal state.
func (l *Ledger) Terminal() int { return l.terminal }

// Requeues counts lost attempts that went back on the queue.
func (l *Ledger) Requeues() int { return l.requeues }

// Attempts counts gi's spent attempts.
func (l *Ledger) Attempts(gi int) int { return int(l.attempts[gi]) }

// Queue is the queue in dispatch order, for reading only.
func (l *Ledger) Queue() []int { return l.queue }

// Pending counts groups awaiting dispatch: the queue plus the backlogs of
// workers that are not dead.
func (l *Ledger) Pending() int {
	n := len(l.queue)
	for _, w := range l.workers {
		if !w.Dead {
			n += len(w.Backlog)
		}
	}
	return n
}

// Next is the pick: w's backlog head, else the queue head — or, with a
// non-nil resident (compute-to-data placement), the first queued group it
// reports as wholly on w. False when w is not ready, not live, or has
// nothing to take. resident is only called, so a closure stays on the
// caller's stack.
func (l *Ledger) Next(w *Worker, resident func(gi int) bool) (int, bool) {
	if !w.Ready || !w.Live() {
		return 0, false
	}
	if len(w.Backlog) > 0 {
		return popAt(&w.Backlog, 0), true
	}
	if len(l.queue) == 0 {
		return 0, false
	}
	return popAt(&l.queue, pick(l.queue, resident)), true
}

// Head is w's backlog head, else the queue head — the FIFO pick — without
// taking it. False when both are empty.
func (l *Ledger) Head(w *Worker) (int, bool) {
	switch {
	case len(w.Backlog) > 0:
		return w.Backlog[0], true
	case len(l.queue) > 0:
		return l.queue[0], true
	}
	return 0, false
}

// Succeed books gi's attempt as done: the group is terminal.
func (l *Ledger) Succeed(gi int) {
	l.attempts[gi]++
	l.terminal++
}

// Fail is the lost-task rule: one of gi's attempts failed or died with its
// worker. Under recover with budget left the group is requeued and Fail
// returns true; otherwise the group is terminal, for the caller to record.
func (l *Ledger) Fail(gi int) bool {
	l.attempts[gi]++
	if l.recover && int(l.attempts[gi]) <= l.maxRetries {
		l.requeues++
		l.queue = append(l.queue, gi)
		return true
	}
	l.terminal++
	return false
}

// Deal hands w its pre-partition share as its backlog. A worker that died
// since the deal was planned fails the share, returning what became
// terminal; one that began to drain puts it on the queue. Deal keeps share.
func (l *Ledger) Deal(w *Worker, share []int) []int {
	switch {
	case w.Dead:
		return l.failAll(share)
	case w.Draining:
		l.queue = append(l.queue, share...)
	default:
		w.Backlog = share
	}
	return nil
}

// Drain starts w's scale-in: its backlog returns to the queue.
func (l *Ledger) Drain(w *Worker) {
	w.Draining = true
	l.queue = append(l.queue, w.Backlog...)
	w.Backlog = nil
}

// Die marks w dead and fails its in-flight groups, then its backlog,
// returning what became terminal, in that order, in inflight's array.
func (l *Ledger) Die(w *Worker, inflight []int) []int {
	w.Dead = true
	lost := append(l.failAll(inflight), l.failAll(w.Backlog)...)
	w.Backlog = nil
	return lost
}

// failAll fails every group of gs and returns, in gs's array, those that
// became terminal.
func (l *Ledger) failAll(gs []int) []int {
	out := gs[:0]
	for _, gi := range gs {
		if !l.Fail(gi) {
			out = append(out, gi)
		}
	}
	return out
}

// Abandon is the stall rule: while groups are queued and no joined worker
// is live, nobody can take them, so they all become terminal and are
// returned for the caller to record as failed. It does not wait for
// in-flight attempts; one that fails later is abandoned by a later call.
func (l *Ledger) Abandon() []int {
	if len(l.queue) == 0 || slices.ContainsFunc(l.workers, (*Worker).Live) {
		return nil
	}
	q := l.queue
	l.queue = nil
	l.terminal += len(q)
	return q
}

// Forget takes one group off the terminal count: an amnesiac master
// restarted without its record that the group finished.
func (l *Ledger) Forget() { l.terminal-- }

// Rebuild is a restarted master's reconciliation: the backlogs were its
// memory and are gone, and pending becomes the queue.
func (l *Ledger) Rebuild(pending []int) {
	for _, w := range l.workers {
		w.Backlog = nil
	}
	l.queue = pending
}

// pick returns the index in the non-empty queue of the group to take: the
// first resident one, else the head.
func pick(queue []int, resident func(gi int) bool) int {
	if resident != nil {
		for qi, gi := range queue {
			if resident(gi) {
				return qi
			}
		}
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
