// Package sim implements a deterministic discrete-event simulation engine
// with a virtual clock. It is the substrate under FRIEDA's paper-scale
// experiments: the evaluation in the SC'12 paper ran for wall-clock hours on
// an ExoGENI virtual cluster; replaying the same orderings in virtual time
// lets the full parameter sweeps run in milliseconds while preserving every
// overlap and contention effect.
//
// The engine is single-threaded and fully deterministic: events that fire at
// the same virtual time are delivered in scheduling order (FIFO by sequence
// number). Events may be cancelled or rescheduled, which the flow-level
// network model relies on when fair-share rates change.
//
// An event fires a Handler: a record whose Fire method continues the work
// that scheduled it. A flow, a stage-in or a task attempt schedules itself,
// so firing it costs no closure; Schedule and At take a plain func, which
// boxes into a Handler without allocating (Func).
//
// Each engine owns its events: they come from chunks of its own (Arena)
// and go back to its own free list once fired or cancelled, so the engine
// allocates no per-event memory in steady state and no event is ever shared
// with another engine. That covers the Event record only: whatever a handler
// allocates when it is built or when it fires is its owner's, and DESIGN.md
// ("Hot-path rules") counts what the simulator's own handlers do. Handles
// are generation-guarded EventRef values — a Cancel through a stale handle
// (the event already fired or was cancelled, and its storage possibly reused
// by a later event of the same engine) is a no-op, never a cancellation of
// an unrelated newer event.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation. Using float64 seconds keeps rate arithmetic (bytes / bits-per-
// second) exact enough for the fluid network model while staying readable in
// experiment output.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Infinity is a virtual time later than any event the engine will fire.
const Infinity Time = Time(math.MaxFloat64)

// Handler is what an event fires. A record that schedules itself implements
// it with one method, so the engine calls it directly.
type Handler interface {
	Fire()
}

// Func adapts a plain function to Handler. A func value is pointer-shaped,
// so converting one to a Handler does not allocate: Schedule and At cost
// what they did before handlers existed.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is the engine's internal record of a scheduled handler. Its storage
// belongs to one engine, which reuses it for that engine's later events, so
// user code holds EventRef handles rather than *Event. Its fire time and
// scheduling order live beside it, in the engine's heap or its current
// instant's queue.
type Event struct {
	h     Handler
	owner *Engine
	next  *Event // the owner's free list, while the event is free
	gen   uint64 // incremented on release; stale EventRefs stop matching
	index int32  // heap index, or -2-i at position i of the instant's queue; -1 once removed
}

// EventRef is a handle to a scheduled event, returned by Schedule and At.
// It is a small value, cheap to copy and store. The zero value refers to no
// event; Cancel and Pending on it are no-ops. A ref goes stale the moment
// its event fires or is cancelled — any later Cancel through it is a no-op
// even if the engine has reused the event's storage for a newer event.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Pending reports whether the referenced event is still queued to fire.
func (r EventRef) Pending() bool { return r.ev != nil && r.ev.gen == r.gen }

// Cancel prevents the event from firing and removes it from the engine's
// queue immediately, so cancel-heavy workloads (the flow-level network
// model reschedules completions whenever rates change) keep the heap
// bounded by the number of live events. Cancelling an event that already
// fired or was already cancelled is a no-op, guarded by the generation
// counter: a stale ref can never cancel the event now occupying the same
// storage.
func (r EventRef) Cancel() {
	ev := r.ev
	if ev == nil || ev.gen != r.gen {
		return
	}
	eng := ev.owner
	if ev.index >= 0 {
		eng.queue.remove(int(ev.index))
	} else {
		eng.instant[-2-ev.index].ev = nil // popNext skips the hole
		eng.ninstant--
	}
	eng.release(ev)
}

// slot is a queued event with its heap key: the key sits in the heap array,
// so sifting compares neighbours without visiting their events.
type slot struct {
	when Time
	seq  uint64
	ev   *Event
}

// before orders slots by (when, seq), a total order: seq is unique per
// engine, so same-time events fire FIFO and the pop order does not depend on
// the heap's shape.
func (s *slot) before(o *slot) bool {
	return s.when < o.when || s.when == o.when && s.seq < o.seq
}

// eventHeap is a hand-rolled 4-ary min-heap of slots: half the depth of a
// binary heap, and a node's four children share a cache line or two. Every
// move writes the event's index, which Cancel removes it by.
type eventHeap []slot

// set stores s at index i.
func (h eventHeap) set(i int, s slot) {
	h[i] = s
	s.ev.index = int32(i)
}

// push adds s, doubling the heap's capacity when it is full, where append
// would grow a long heap by a quarter at a time.
func (h *eventHeap) push(s slot) {
	if len(*h) == cap(*h) {
		*h = slices.Grow(*h, max(len(*h), 1))
	}
	*h = append(*h, s)
	h.up(len(*h)-1, s)
}

// pop removes and returns the minimum slot.
func (h *eventHeap) pop() slot {
	top := (*h)[0]
	h.remove(0)
	return top
}

// remove deletes the slot at index i; its event's index becomes -1.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i].ev.index = -1
	last := old[n]
	old[n] = slot{}
	*h = old[:n]
	if i != n && h.down(i, last) == i {
		h.up(i, last)
	}
}

// up stores s at the hole i or above it, moving the parents it passes down.
func (h eventHeap) up(i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(&h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, s)
}

// down stores s at the hole i or below it, moving the children it passes
// up, and returns where s landed.
func (h eventHeap) down(i int, s slot) int {
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&s) {
			break
		}
		h.set(i, h[least])
		i = least
	}
	h.set(i, s)
	return i
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	fired   uint64
	running bool

	// instant queues, FIFO, the events a firing handler schedules for the
	// current time (a zero delay: a settle or pass that must follow the
	// instant's other work), so they skip the heap's sift up and down.
	// popNext fires the lesser (when, seq) of its head and the heap's top,
	// so the order is the one the heap alone would give, wherever an event
	// waits. Events scheduled between firings go to the heap, which Reserve
	// sizes for batches such as a cluster's boots. instant[head:] are still
	// to fire, ninstant of them live (a cancelled one leaves a hole).
	instant  []slot
	head     int
	ninstant int
	firing   bool

	// events is where the engine's events come from, and free lists the
	// nfree fired and cancelled ones a later Schedule reuses first.
	events Arena[Event]
	free   *Event
	nfree  int
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been delivered so far. It is useful in
// tests and as a progress metric for long sweeps.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many live events are queued. Cancelled events leave
// the queue immediately, so they never count.
func (e *Engine) Pending() int { return len(e.queue) + e.ninstant }

// Schedule queues fn to run after delay. A negative delay panics: virtual
// time never runs backwards. It returns the event handle so the caller may
// cancel it.
func (e *Engine) Schedule(delay Duration, fn func()) EventRef {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.ScheduleHandler(delay, Func(fn))
}

// At queues fn to run at absolute virtual time t, which must not be in the
// past.
func (e *Engine) At(t Time, fn func()) EventRef {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.AtHandler(t, Func(fn))
}

// ScheduleHandler queues h to fire after delay, as Schedule does a func.
func (e *Engine) ScheduleHandler(delay Duration, h Handler) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.AtHandler(e.now+delay, h)
}

// AtHandler queues h to fire at absolute virtual time t, which must not be
// in the past. Events fire in (time, scheduling order), whatever fires them.
func (e *Engine) AtHandler(t Time, h Handler) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	e.seq++
	ev := e.free
	if ev != nil {
		e.free, ev.next = ev.next, nil
		e.nfree--
	} else {
		ev = e.events.New()
		ev.owner = e
	}
	ev.h = h
	if t == e.now && e.firing {
		if len(e.instant) == cap(e.instant) {
			e.instant = slices.Grow(e.instant, max(len(e.instant), 16))
		}
		ev.index = int32(-2 - len(e.instant))
		e.instant = append(e.instant, slot{when: t, seq: e.seq, ev: ev})
		e.ninstant++
	} else {
		e.queue.push(slot{when: t, seq: e.seq, ev: ev})
	}
	return EventRef{ev: ev, gen: ev.gen}
}

// release invalidates every outstanding ref to ev and puts its storage on
// the engine's free list for a later Schedule of this engine.
func (e *Engine) release(ev *Event) {
	ev.gen++ // stale refs stop matching from here on
	ev.h = nil
	ev.next, e.free = e.free, ev
	e.nfree++
}

// Reserve makes room for n more pending events: those the free list cannot
// serve come from one chunk, and the queue grows at most once. A batch that
// schedules many events at once (a cluster's boots) calls it first.
func (e *Engine) Reserve(n int) {
	e.events.Reserve(n - e.nfree)
	e.queue = slices.Grow(e.queue, n)
}

// popNext removes the next event with time <= deadline and returns its
// handler and fire time, releasing the event's storage before the handler
// runs (so a handler that schedules new work can reuse it immediately, and
// a self-Cancel from inside the handler is a guarded no-op). It is the
// single dequeue path shared by RunUntil and Step, so both count fired
// events identically.
func (e *Engine) popNext(deadline Time) (h Handler, at Time, ok bool) {
	for e.head < len(e.instant) && e.instant[e.head].ev == nil {
		e.head++
	}
	if e.head == len(e.instant) {
		e.instant, e.head = e.instant[:0], 0
	}
	var next slot
	switch {
	case e.head < len(e.instant) && e.now <= deadline &&
		(len(e.queue) == 0 || e.instant[e.head].before(&e.queue[0])):
		next = e.instant[e.head]
		e.head++
		e.ninstant--
		next.ev.index = -1
	case len(e.queue) > 0 && e.queue[0].when <= deadline:
		next = e.queue.pop()
	default:
		return nil, 0, false
	}
	h, at = next.ev.h, next.when
	e.release(next.ev)
	return h, at, true
}

// Run delivers events until the queue is empty. It returns the final virtual
// time.
func (e *Engine) Run() Time {
	return e.RunUntil(Infinity)
}

// RunUntil delivers events with time <= deadline. The clock is left at the
// time of the last delivered event, or advanced to deadline if the deadline
// is finite and the queue drained earlier. It returns the current time.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: Run re-entered from inside an event")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		h, at, ok := e.popNext(deadline)
		if !ok {
			break
		}
		e.fire(h, at)
	}
	if deadline != Infinity && e.now < deadline && e.Pending() == 0 {
		e.now = deadline
	}
	return e.now
}

// Step delivers exactly one event and reports whether one was delivered.
func (e *Engine) Step() bool {
	h, at, ok := e.popNext(Infinity)
	if !ok {
		return false
	}
	e.fire(h, at)
	return true
}

// fire delivers h at time at, the one delivery path of RunUntil and Step.
func (e *Engine) fire(h Handler, at Time) {
	e.now = at
	e.fired++
	e.firing = true
	h.Fire()
	e.firing = false
}
