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
// drops the timer's event ref before fn runs: the event's storage is already
// back in the pool engines share, so a Stop or Reset from fn (a VM's failure
// timer stops itself) must not look at it — another engine's goroutine may own
// it by then.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := &Timer{eng: eng}
	t.fn = func() {
		t.ev = EventRef{}
		fn()
	}
	return t
}

// Reset (re)arms the timer to fire after delay, cancelling any pending fire.
func (t *Timer) Reset(delay Duration) {
	t.ev.Cancel()
	t.ev = t.eng.Schedule(delay, t.fn)
}

// Stop cancels a pending fire. It is safe on a stopped timer.
func (t *Timer) Stop() {
	t.ev.Cancel()
	t.ev = EventRef{}
}

// Armed reports whether the timer has a pending fire.
func (t *Timer) Armed() bool {
	return t.ev.Pending()
}

// Resource is a counting resource with FIFO admission (e.g. CPU cores of a
// virtual machine). Acquire either admits immediately or queues the request.
type Resource struct {
	capacity int
	inUse    int
	waiters  []func()
}

// NewResource returns a resource with the given capacity (> 0).
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{capacity: capacity}
}

// Capacity returns the total number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of held slots.
func (r *Resource) InUse() int { return r.inUse }

// Acquire grants a slot to fn now if one is free, otherwise queues fn.
func (r *Resource) Acquire(fn func()) {
	if r.inUse < r.capacity {
		r.inUse++
		fn()
		return
	}
	r.waiters = append(r.waiters, fn)
}

// Release returns a slot, admitting the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of unheld resource")
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		next()
		return
	}
	r.inUse--
}
