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
// Event objects are recycled through a free-list pool: a fired or cancelled
// event's storage is reused by later Schedule calls, so the engine itself
// allocates no per-event memory in steady state. That covers the Event
// record only: whatever a handler allocates when it is built or when it
// fires is its owner's, and DESIGN.md ("Hot-path rules") counts what the
// simulator's own handlers do. Handles are generation-guarded
// EventRef values — a Cancel through a stale handle (the event already fired
// or was cancelled, and its storage possibly reused) is a no-op, never a
// cancellation of an unrelated newer event.
package sim

import (
	"fmt"
	"math"
	"sync"
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
// is pooled and reused across events (and across engines — the pool is
// shared so a sweep of thousands of short-lived engines recycles one arena),
// which is why user code holds EventRef handles rather than *Event.
type Event struct {
	when  Time
	seq   uint64
	gen   uint64 // incremented on release; stale EventRefs stop matching
	h     Handler
	owner *Engine
	index int // heap index; -1 once removed
}

// eventPool recycles Event storage across fires, cancels and engines. It is
// the engine's only concurrency-aware structure: engines themselves are
// strictly single-threaded, but independent engines on different goroutines
// (the parallel experiment orchestrator) share this pool safely.
var eventPool = sync.Pool{New: func() any { return &Event{index: -1} }}

// EventRef is a handle to a scheduled event, returned by Schedule and At.
// It is a small value, cheap to copy and store. The zero value refers to no
// event; Cancel and Pending on it are no-ops. A ref goes stale the moment
// its event fires or is cancelled — any later Cancel through it is a no-op
// even if the event's pooled storage has been reused by a newer event.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Pending reports whether the referenced event is still queued to fire.
func (r EventRef) Pending() bool { return r.ev != nil && r.ev.gen == r.gen }

// When reports the virtual time the event is scheduled to fire, or 0 if the
// ref is stale (the event already fired or was cancelled).
func (r EventRef) When() Time {
	if !r.Pending() {
		return 0
	}
	return r.ev.when
}

// Cancel prevents the event from firing and removes it from the engine's
// queue immediately, so cancel-heavy workloads (the flow-level network
// model reschedules completions whenever rates change) keep the heap
// bounded by the number of live events. Cancelling an event that already
// fired or was already cancelled is a no-op, guarded by the generation
// counter: a stale ref can never cancel the event now occupying the same
// pooled storage.
func (r EventRef) Cancel() {
	ev := r.ev
	if ev == nil || ev.gen != r.gen {
		return
	}
	eng := ev.owner
	if eng == nil {
		return
	}
	if ev.index >= 0 {
		eng.queue.remove(ev.index)
	}
	eng.release(ev)
}

// eventHeap orders events by (when, seq) so same-time events fire FIFO. It
// is a hand-rolled binary heap rather than container/heap so the hot
// push/pop paths avoid the interface boxing of heap.Push/heap.Pop.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	e := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	e := old[n]
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !h.down(i) {
			h.up(i)
		}
	}
	e.index = -1
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts index i toward the leaves; reports whether it moved.
func (h eventHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
	return i > start
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	fired   uint64
	running bool
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
func (e *Engine) Pending() int { return len(e.queue) }

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
	ev := eventPool.Get().(*Event)
	ev.when, ev.seq, ev.h, ev.owner = t, e.seq, h, e
	e.queue.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// release invalidates every outstanding ref to ev and returns its storage to
// the pool for reuse by a later Schedule (possibly on another engine).
func (e *Engine) release(ev *Event) {
	ev.gen++ // stale refs stop matching from here on
	ev.h = nil
	ev.owner = nil
	ev.index = -1
	eventPool.Put(ev)
}

// popNext removes the next event with time <= deadline and returns its
// handler and fire time, releasing the event's storage before the handler
// runs (so a handler that schedules new work can reuse it immediately, and
// a self-Cancel from inside the handler is a guarded no-op). It is the
// single dequeue path shared by RunUntil and Step, so both count fired
// events identically.
func (e *Engine) popNext(deadline Time) (h Handler, at Time, ok bool) {
	if len(e.queue) == 0 || e.queue[0].when > deadline {
		return nil, 0, false
	}
	next := e.queue.pop()
	h, at = next.h, next.when
	e.release(next)
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
		e.now = at
		e.fired++
		h.Fire()
	}
	if deadline != Infinity && e.now < deadline && len(e.queue) == 0 {
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
	e.now = at
	e.fired++
	h.Fire()
	return true
}
