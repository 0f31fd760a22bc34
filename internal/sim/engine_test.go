package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var got []int
	eng.Schedule(3, func() { got = append(got, 3) })
	eng.Schedule(1, func() { got = append(got, 1) })
	eng.Schedule(2, func() { got = append(got, 2) })
	eng.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if eng.Now() != 3 {
		t.Fatalf("final time = %v, want 3", eng.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(5, func() { got = append(got, i) })
	}
	eng.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.Schedule(1, func() { fired = true })
	ev.Cancel()
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var times []Time
	eng.Schedule(1, func() {
		times = append(times, eng.Now())
		eng.Schedule(1, func() {
			times = append(times, eng.Now())
			eng.Schedule(1, func() { times = append(times, eng.Now()) })
		})
	})
	eng.Run()
	want := []Time{1, 2, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	for _, d := range []Duration{1, 2, 3, 4, 5} {
		d := d
		eng.Schedule(d, func() { fired = append(fired, eng.Now()) })
	}
	eng.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3, want 3", len(fired))
	}
	if eng.Now() != 3 {
		t.Fatalf("now = %v, want 3", eng.Now())
	}
	eng.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	eng := NewEngine()
	eng.RunUntil(42)
	if eng.Now() != 42 {
		t.Fatalf("idle clock = %v, want 42", eng.Now())
	}
}

func TestEngineStep(t *testing.T) {
	eng := NewEngine()
	n := 0
	eng.Schedule(1, func() { n++ })
	eng.Schedule(2, func() { n++ })
	if !eng.Step() || n != 1 {
		t.Fatalf("after first Step n=%d", n)
	}
	if !eng.Step() || n != 2 {
		t.Fatalf("after second Step n=%d", n)
	}
	if eng.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEnginePanicsOnPastAt(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(5, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	eng.At(1, func() {})
}

func TestEngineFiredCount(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 7; i++ {
		eng.Schedule(Duration(i), func() {})
	}
	ev := eng.Schedule(100, func() {})
	ev.Cancel()
	eng.Run()
	if eng.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", eng.Fired())
	}
}

// Property: events always fire in non-decreasing time order, whatever the
// random schedule, including events scheduled from inside other events.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		var fired []Time
		count := int(n%50) + 1
		for i := 0; i < count; i++ {
			eng.Schedule(Duration(rng.Float64()*100), func() {
				fired = append(fired, eng.Now())
				if rng.Intn(3) == 0 {
					eng.Schedule(Duration(rng.Float64()*10), func() {
						fired = append(fired, eng.Now())
					})
				}
			})
		}
		eng.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset of events fires exactly the others.
func TestEngineCancelSubsetProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		count := int(n%40) + 1
		fired := 0
		cancelled := 0
		events := make([]EventRef, count)
		for i := 0; i < count; i++ {
			events[i] = eng.Schedule(Duration(rng.Float64()*100), func() { fired++ })
		}
		for _, ev := range events {
			if rng.Intn(2) == 0 {
				ev.Cancel()
				cancelled++
			}
		}
		eng.Run()
		return fired == count-cancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: zero-delay events, which wait in the current instant's queue
// rather than the heap, fire in (time, scheduling order) with the rest.
// Handlers schedule events at small integer delays, zero among them, so
// instants collide, and cancel random pending ones, so the instant's queue
// gets holes. The firing order must be sorted by (time, scheduling order),
// every event fires unless cancelled, and Pending counts the rest, whether
// Run or Step drains the engine.
func TestSameInstantQueueKeepsOrderProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		type rec struct {
			when      Time
			seq       int
			cancelled bool
			ref       EventRef
		}
		var recs []*rec
		var order []*rec
		var schedule func(delay Duration)
		schedule = func(delay Duration) {
			r := &rec{when: eng.Now() + delay, seq: len(recs)}
			recs = append(recs, r)
			r.ref = eng.Schedule(delay, func() {
				order = append(order, r)
				for i := rng.Intn(3); i > 0 && len(recs) < 400; i-- {
					schedule(Duration(rng.Intn(3)))
				}
				if rng.Intn(4) == 0 {
					if v := recs[rng.Intn(len(recs))]; v.ref.Pending() {
						v.ref.Cancel()
						v.cancelled = true
					}
				}
			})
		}
		for i := 0; i < 8; i++ {
			schedule(Duration(rng.Intn(3)))
		}
		live := 0
		for _, r := range recs {
			if r.ref.Pending() {
				live++
			}
		}
		if eng.Pending() != live {
			return false
		}
		if seed%2 == 0 {
			eng.Run()
		} else {
			for eng.Step() {
			}
		}
		for i := 1; i < len(order); i++ {
			a, b := order[i-1], order[i]
			if a.when > b.when || a.when == b.when && a.seq > b.seq {
				return false
			}
		}
		fired := 0
		for _, r := range recs {
			if !r.cancelled {
				fired++
			}
		}
		return fired == len(order) && eng.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetStop(t *testing.T) {
	eng := NewEngine()
	fires := 0
	tm := NewTimer(eng, func() { fires++ })
	tm.Reset(5)
	tm.Reset(10) // supersedes the first arm
	if !tm.ev.Pending() {
		t.Fatal("timer not armed after Reset")
	}
	eng.Run()
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	if eng.Now() != 10 {
		t.Fatalf("fired at %v, want 10", eng.Now())
	}
	tm.Reset(3)
	tm.Stop()
	eng.Run()
	if fires != 1 {
		t.Fatalf("stopped timer fired; fires = %d", fires)
	}
	if tm.ev.Pending() {
		t.Fatal("stopped timer reports armed")
	}
}

// A fired timer holds no ref to its event, whose storage the engine may
// already have reused: Stop from the timer's own callback touches nothing.
func TestTimerDropsRefOnFire(t *testing.T) {
	eng := NewEngine()
	var tm *Timer
	held := EventRef{ev: &Event{}} // anything but the zero ref
	tm = NewTimer(eng, func() {
		held = tm.ev
		tm.Stop()
	})
	tm.Reset(1)
	eng.Run()
	if held != (EventRef{}) {
		t.Fatalf("timer still refers to its fired event: %+v", held)
	}
	if tm.ev.Pending() {
		t.Fatal("fired timer reports armed")
	}
}

func TestResourceAdmission(t *testing.T) {
	r := NewResource(2)
	order := []int{}
	r.Acquire(Func(func() { order = append(order, 1) }))
	r.Acquire(Func(func() { order = append(order, 2) }))
	r.Acquire(Func(func() { order = append(order, 3) })) // queued
	if r.InUse() != 2 || len(order) != 2 {
		t.Fatalf("inUse=%d admitted=%v", r.InUse(), order)
	}
	r.Release() // admits 3
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if r.InUse() != 2 {
		t.Fatalf("inUse after handoff = %d, want 2", r.InUse())
	}
	r.Release()
	r.Release()
	if r.InUse() != 0 {
		t.Fatalf("inUse = %d, want 0", r.InUse())
	}
}

func TestResourceReleasePanicsWhenUnheld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on spurious release")
		}
	}()
	r := NewResource(1)
	r.Release()
}

// Property: for any interleaving of acquires and releases, inUse never
// exceeds capacity and waiters are admitted FIFO.
func TestResourceInvariantProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := rng.Intn(4) + 1
		r := NewResource(capacity)
		released := 0
		var admittedOrder []int
		next := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				id := next
				next++
				r.Acquire(Func(func() { admittedOrder = append(admittedOrder, id) }))
			} else if released < len(admittedOrder) {
				r.Release()
				released++
			}
			if r.InUse() > r.Capacity() || r.InUse() != len(admittedOrder)-released {
				return false
			}
		}
		return sort.IntsAreSorted(admittedOrder)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// admissions counts the times a queued acquire was admitted.
type admissions int

func (a *admissions) Fire() { *a++ }

// A capacity-1 resource cycling 10,000 queued acquires allocates nothing
// once its queue has reached that size: the FIFO pops by a head index
// instead of reslicing, so append never has to regrow the array as the head
// walks forward, and every vacated slot is cleared, so an admitted waiter
// is not kept reachable by the queue.
func TestResourceQueueAllocatesNothingWarm(t *testing.T) {
	const queued = 10_000
	r := NewResource(1)
	var admitted admissions
	r.Acquire(&admitted) // holds the slot; every later acquire queues
	cycle := func() {
		for i := 0; i < queued; i++ {
			r.Acquire(&admitted)
		}
		for i := 0; i < queued; i++ {
			r.Release()
		}
	}
	cycle() // warm-up: the queue grows to its working size
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("a warm queue of %d waiters allocates %v per cycle, want 0", queued, allocs)
	}
	if want := admissions(1 + 7*queued); admitted != want { // AllocsPerRun adds a warm-up run
		t.Fatalf("admitted %d times, want %d", admitted, want)
	}
	for i, h := range r.waiters {
		if h != nil {
			t.Fatalf("queue slot %d still holds an admitted waiter", i)
		}
	}
	if r.InUse() != 1 {
		t.Fatalf("inUse = %d, want 1", r.InUse())
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		for j := 0; j < 1000; j++ {
			eng.Schedule(Duration(j%97), func() {})
		}
		eng.Run()
	}
}

// Regression: Cancel must remove the event from the heap immediately, so a
// cancel-heavy workload (the flow network reschedules completions whenever
// fair-share rates change) keeps the queue bounded by the live event count
// instead of flooding it with dead entries.
func TestCancelRemovesFromHeap(t *testing.T) {
	eng := NewEngine()
	anchor := eng.Schedule(1e6, func() {})
	for i := 0; i < 10000; i++ {
		ev := eng.Schedule(Duration(1000+float64(i)), func() {})
		ev.Cancel()
		if p := eng.Pending(); p != 1 {
			t.Fatalf("Pending = %d after cancel %d, want 1 (dead events linger)", p, i)
		}
	}
	anchor.Cancel()
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling everything", eng.Pending())
	}
}

// A sustained cancel-and-reschedule churn (the allocator's pattern) must
// hold the heap at exactly the live event count at every step.
func TestCancelRescheduleChurnBoundedHeap(t *testing.T) {
	eng := NewEngine()
	rng := rand.New(rand.NewSource(7))
	const live = 50
	events := make([]EventRef, live)
	for i := range events {
		events[i] = eng.Schedule(Duration(rng.Float64()*100+1), func() {})
	}
	for round := 0; round < 2000; round++ {
		i := rng.Intn(live)
		events[i].Cancel()
		events[i] = eng.Schedule(Duration(rng.Float64()*100+1), func() {})
		if p := eng.Pending(); p != live {
			t.Fatalf("round %d: Pending = %d, want %d", round, p, live)
		}
	}
}

// Cancelling from inside a firing event, and double-cancel, stay no-ops.
func TestCancelEdgeCases(t *testing.T) {
	eng := NewEngine()
	var later EventRef
	fired := false
	eng.Schedule(1, func() {
		later.Cancel()
		later.Cancel() // double cancel is a no-op
	})
	later = eng.Schedule(2, func() { fired = true })
	self := eng.Schedule(3, func() {})
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	self.Cancel() // cancel after firing is a no-op
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", eng.Pending())
	}
}

// Step and RunUntil share one dequeue path (popNext); the same schedule must
// produce identical Fired() counts whichever way it is drained.
func TestStepRunUntilFiredParity(t *testing.T) {
	build := func() *Engine {
		eng := NewEngine()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 100; i++ {
			eng.Schedule(Duration(rng.Float64()*50), func() {})
		}
		ev := eng.Schedule(200, func() {})
		ev.Cancel()
		return eng
	}
	byRun := build()
	byRun.Run()
	byStep := build()
	steps := uint64(0)
	for byStep.Step() {
		steps++
	}
	if byRun.Fired() != byStep.Fired() {
		t.Fatalf("Fired: RunUntil=%d Step=%d", byRun.Fired(), byStep.Fired())
	}
	if steps != byStep.Fired() {
		t.Fatalf("Step returned true %d times but Fired=%d", steps, byStep.Fired())
	}
	if byRun.Fired() != 100 {
		t.Fatalf("Fired = %d, want 100 (cancelled event must not count)", byRun.Fired())
	}
}

// A ref held across its event's fire must stay a guarded no-op even when the
// Event storage has been reused by a newer schedule: cancelling the stale
// ref must not cancel the new occupant.
func TestStaleRefCannotCancelReusedEvent(t *testing.T) {
	eng := NewEngine()
	stale := eng.Schedule(1, func() {})
	eng.Run() // fires and puts the event's storage on the engine's free list
	if stale.Pending() {
		t.Fatal("ref still pending after its event fired")
	}
	// The next schedule reuses stale's storage; the stale Cancel must leave
	// every pending event untouched.
	fired := 0
	for i := 0; i < 64; i++ {
		if ref := eng.Schedule(1, func() { fired++ }); i == 0 && ref.ev != stale.ev {
			t.Fatal("the free list did not hand out the released event first")
		}
	}
	stale.Cancel()
	if eng.Pending() != 64 {
		t.Fatalf("stale Cancel removed a live event: Pending = %d, want 64", eng.Pending())
	}
	eng.Run()
	if fired != 64 {
		t.Fatalf("fired = %d, want 64", fired)
	}
}

// BenchmarkEngineEventPool exercises the recycle path: events scheduled from
// inside firing events plus cancel/reschedule churn, the steady-state shape
// of the flow network model. The engine's free list keeps this loop to its
// first event chunk.
func BenchmarkEngineEventPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		var churn EventRef
		var tick func()
		n := 0
		tick = func() {
			n++
			if n >= 1000 {
				churn.Cancel()
				return
			}
			churn.Cancel()
			churn = eng.Schedule(5, func() {})
			eng.Schedule(1, tick)
		}
		eng.Schedule(1, tick)
		eng.Run()
	}
}
