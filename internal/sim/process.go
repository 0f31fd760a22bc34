package sim

// Timer is a resettable one-shot timer on virtual time. It wraps event
// cancellation/rescheduling, which components such as failure detectors and
// flow-completion estimators need constantly.
type Timer struct {
	eng *Engine
	ev  EventRef
	fn  func()
}

// NewTimer returns a stopped timer that will run fn when it fires. Firing
// drops the timer's event ref before fn runs, so a Stop or Reset from fn (a
// VM's failure timer stops itself) finds a stopped timer, not a spent ref.
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{eng: eng, fn: fn}
}

// Fire is the timer's event: it drops the spent ref, then runs fn. The
// engine calls it; Reset is how a caller arms it.
func (t *Timer) Fire() {
	t.ev = EventRef{}
	t.fn()
}

// Reset (re)arms the timer to fire after delay, cancelling any pending fire.
func (t *Timer) Reset(delay Duration) {
	t.ev.Cancel()
	t.ev = t.eng.ScheduleHandler(delay, t)
}

// Stop cancels a pending fire. It is safe on a stopped timer.
func (t *Timer) Stop() {
	t.ev.Cancel()
	t.ev = EventRef{}
}

// Resource is a counting resource with FIFO admission (e.g. CPU cores of a
// virtual machine). Acquire either admits immediately or queues the request.
type Resource struct {
	capacity int
	inUse    int
	// waiters is a ring of queued handlers: the oldest at head, n of them in
	// all. A popped slot is cleared, so an admitted waiter is not kept
	// reachable, and the ring grows only when full, so a steady queue
	// allocates nothing.
	waiters []Handler
	head, n int
}

// NewResource returns a resource with the given capacity (> 0). It returns
// a value, so a record that needs one embeds it instead of pointing at one
// of its own.
func NewResource(capacity int) Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return Resource{capacity: capacity}
}

// Capacity returns the total number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of held slots.
func (r *Resource) InUse() int { return r.inUse }

// Acquire grants a slot to h now, firing it, if one is free; otherwise it
// queues h to fire when a Release admits it.
func (r *Resource) Acquire(h Handler) {
	if r.inUse < r.capacity {
		r.inUse++
		h.Fire()
		return
	}
	if r.n == len(r.waiters) {
		grown := make([]Handler, max(4, 2*len(r.waiters)))
		k := copy(grown, r.waiters[r.head:])
		copy(grown[k:], r.waiters[:r.head])
		r.waiters, r.head = grown, 0
	}
	r.waiters[(r.head+r.n)%len(r.waiters)] = h
	r.n++
}

// Release returns a slot, admitting the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of unheld resource")
	}
	if r.n > 0 {
		next := r.waiters[r.head]
		r.waiters[r.head] = nil
		r.head = (r.head + 1) % len(r.waiters)
		r.n--
		next.Fire()
		return
	}
	r.inUse--
}
