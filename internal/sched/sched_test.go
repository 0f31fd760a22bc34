package sched

import (
	"fmt"
	"slices"
	"testing"

	"frieda/internal/catalog"
	"frieda/internal/partition"
	"frieda/internal/strategy"
)

// pick and popAt are the task pick both executors make through Next — and,
// because templates always re-derive every hit in `friedabench -exp
// ctrlplane`, which CI diffs across runs and pool widths, the simulator's
// control plane on every template hit. That CI guard is the integration
// harness; this table pins the pick over the plan and what the worker holds.
func TestPick(t *testing.T) {
	// Groups 0–3 read files {0}, {1, 2}, {2, 3} and {3}; 1, 2, 3 are queued.
	plan, at := []int32{0, 1, 2, 2, 3, 3}, []int32{0, 1, 3, 5, 6}
	cases := []struct {
		name      string
		placement strategy.Placement
		held      []int32
		want      int
	}{
		{"data-to-compute takes the head", strategy.DataToCompute, []int32{3}, 0},
		{"c2d hit at the head", strategy.ComputeToData, []int32{1, 2, 3}, 0},
		{"c2d hit in the middle", strategy.ComputeToData, []int32{2, 3}, 1},
		{"c2d hit at the tail, past a group held in part", strategy.ComputeToData, []int32{3}, 2},
		{"c2d groups held only in part fall back to the head", strategy.ComputeToData, []int32{2}, 0},
		{"c2d nothing held falls back to the head", strategy.ComputeToData, nil, 0},
	}
	for _, tc := range cases {
		l := &Ledger[int]{queue: []int{1, 2, 3}, strat: strategy.Config{Kind: strategy.RealTime, Placement: tc.placement}}
		l.Plan(plan, at)
		w := &Worker[int]{}
		for _, id := range tc.held {
			w.Held.Add(id)
		}
		if got := l.pick(w); got != tc.want {
			t.Errorf("%s: pick = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestPopAt(t *testing.T) {
	// Head: a re-slice of the same array — nothing moves, the callers' later
	// appends keep working, and the popped slot is simply out of view.
	backing := []int{1, 2, 3, 4}
	q := backing
	if gi := popAt(&q, 0); gi != 1 || len(q) != 3 || cap(q) != 3 || &q[0] != &backing[1] {
		t.Fatalf("head pop: got %d, queue %v (cap %d)", gi, q, cap(q))
	}
	q = append(q, 5)
	if want := []int{2, 3, 4, 5}; !slices.Equal(q, want) {
		t.Fatalf("append after head pop: %v, want %v", q, want)
	}
	// Middle and tail: order of the rest is preserved.
	if gi := popAt(&q, 2); gi != 4 || !slices.Equal(q, []int{2, 3, 5}) {
		t.Fatalf("middle pop: got %d, queue %v", gi, q)
	}
	if gi := popAt(&q, 2); gi != 5 || !slices.Equal(q, []int{2, 3}) {
		t.Fatalf("tail pop: got %d, queue %v", gi, q)
	}
	// Down to empty, then reusable.
	popAt(&q, 0)
	popAt(&q, 0)
	if len(q) != 0 {
		t.Fatalf("queue not empty: %v", q)
	}
	if q = append(q, 9); popAt(&q, 0) != 9 {
		t.Fatal("pop after refill")
	}
}

// The pick runs once per dispatched task in both executors, under the real
// master's mutex: its scan over the plan and the worker's held set, and the
// pop that follows, must not allocate.
func TestPickDoesNotAllocate(t *testing.T) {
	// Group gi reads file gi; only the group near the tail is held.
	l := &Ledger[int]{strat: strategy.Config{Kind: strategy.RealTime, Placement: strategy.ComputeToData}}
	l.Plan([]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	queue := []int{3, 1, 4, 1, 5, 9, 2, 6}
	w := &Worker[int]{}
	w.Held.Add(2)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		l.queue = queue
		if gi := popAt(&l.queue, l.pick(w)); gi != 2 {
			t.Fatalf("pick took %d, want the held 2", gi)
		}
		sink++
		copy(queue, []int{3, 1, 4, 1, 5, 9, 2, 6}) // undo the in-place shift
	})
	if allocs != 0 {
		t.Fatalf("pick+popAt allocate %v times per call, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("pick never ran")
	}
}

// Next under compute-to-data placement is what both executors call per
// dispatch: the pick's scan and the ledger's own bookkeeping must not
// allocate.
func TestNextDoesNotAllocate(t *testing.T) {
	// Every pick is settled and requeued at once, under an unbounded budget,
	// so the queue keeps its length and its array. Group gi reads file gi.
	l := NewLedger[int](true, 1<<30)
	w := &Worker[int]{}
	l.Join(w, 1)
	l.Plan([]int32{0, 1, 2, 3, 4, 5, 6, 7}, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8})
	l.Start(strategy.Config{Kind: strategy.RealTime, Placement: strategy.ComputeToData, Prefetch: 1}, 8, nil, nil)
	l.Arrive(w)
	w.Held.Add(5)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		gi, ok := l.Next(w)
		if !ok || gi != 5 {
			t.Fatalf("Next = %d, %v; want the resident 5", gi, ok)
		}
		sink += gi
		l.Settle(w, gi, 0)
		l.Fail(gi)
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %v times per call, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("Next never ran")
	}
}

// The run's lifecycle: a pre-partition deal in the caller's order, the
// staging barrier holding every pick back, the window, a clone past it in
// group order, and a drained worker released by the settle that empties it.
func TestLifecycle(t *testing.T) {
	l := NewLedger[int](false, 0)
	a, b := &Worker[int]{}, &Worker[int]{}
	l.Join(a, 2)
	l.Join(b, 1)
	l.Start(strategy.Config{Kind: strategy.PrePartition}, 6, func() []partition.Group { return make([]partition.Group, 6) }, []*Worker[int]{b, a})
	if !slices.Equal(b.Backlog, []int{0, 2, 4}) || !slices.Equal(a.Backlog, []int{1, 3, 5}) {
		t.Fatalf("deal in the given order: a %v, b %v", a.Backlog, b.Backlog)
	}
	l.Arrive(a)
	l.Arrive(b)
	l.Stage(a)
	l.Stage(b)
	if _, ok := l.Next(a); ok {
		t.Fatal("a pick while staging items are open")
	}
	if l.Staged(a) || l.Staged(a) {
		t.Fatal("the phase ended with b's item open")
	}
	if !l.Staged(b) {
		t.Fatal("the last item did not end the phase")
	}
	for range 2 {
		if _, ok := l.Next(a); !ok {
			t.Fatal("a refused below its window")
		}
	}
	if _, ok := l.Head(a); ok {
		t.Fatal("Head offers a pick past the window")
	}
	if _, ok := l.Next(a); ok {
		t.Fatal("a pick past the window")
	}
	gb, _ := l.Next(b)
	l.Clone(a, gb)
	if got := groups(a); !slices.Equal(got, []int{0, 1, 3}) {
		t.Fatalf("in flight %v after a clone of %d, want [0 1 3]", got, gb)
	}
	if l.Drain(a) || a.Dead {
		t.Fatal("released with work in flight")
	}
	if l.Live() != 1 || !slices.Equal(l.Queue(), []int{5}) {
		t.Fatalf("live %d, queue %v after the drain", l.Live(), l.Queue())
	}
	for _, gi := range []int{3, 0} {
		if settled, released := l.Settle(a, gi, 0); !settled || released {
			t.Fatalf("Settle(a, %d) = %v, %v; want settled, not released", gi, settled, released)
		}
	}
	if settled, released := l.Settle(a, 1, 0); !settled || !released || !a.Dead {
		t.Fatal("not released by the settle that emptied it")
	}
	if settled, _ := l.Settle(b, gb, 0); !settled {
		t.Fatal("b's group not settled")
	}
	if l.Drain(b) != true || l.Live() != 0 || l.Arrived() != 2 {
		t.Fatalf("an idle worker's drain: live %d, arrived %d", l.Live(), l.Arrived())
	}
}

// groups lists w's groups in flight, in the ledger's order.
func groups(w *Worker[int]) []int {
	var gs []int
	for _, f := range w.InFlight() {
		gs = append(gs, f.Group)
	}
	return gs
}

// Settle refuses a group that is not in flight on the worker — one still
// queued, one in flight on another worker, one settled already, and any of
// a dead worker's — and changes nothing: the list, the handles, the counts,
// and a draining worker's release all stay as they were.
func TestSettleRefusesGroupNotInFlight(t *testing.T) {
	l := NewLedger[int](false, 0)
	a, b := &Worker[int]{}, &Worker[int]{}
	l.Join(a, 2)
	l.Join(b, 2)
	l.Start(strategy.Config{Kind: strategy.RealTime, Prefetch: 1}, 6, nil, nil)
	l.Arrive(a)
	l.Arrive(b)
	l.Next(a) // 0
	l.Next(a) // 1
	l.Next(b) // 2
	*a.Handle(1) = 10
	refused := func(w *Worker[int], gi int) {
		t.Helper()
		before, dead, live := slices.Clone(w.InFlight()), w.Dead, l.Live()
		if settled, released := l.Settle(w, gi, 0); settled || released {
			t.Fatalf("Settle of %d = %v, %v; want refused", gi, settled, released)
		}
		if !slices.Equal(w.InFlight(), before) || w.Dead != dead || l.Live() != live {
			t.Fatalf("a refused Settle of %d changed the worker: %v -> %v", gi, before, w.InFlight())
		}
	}
	refused(a, 3) // queued
	refused(a, 2) // b's
	if settled, _ := l.Settle(a, 0, 0); !settled {
		t.Fatal("a's group 0 not settled")
	}
	refused(a, 0) // a repeated status
	l.Drain(a)
	refused(a, 0) // does not release a with group 1 in flight
	if h := a.Handle(1); h == nil || *h != 10 || a.Dead {
		t.Fatalf("group 1's handle %v; dead %v", h, a.Dead)
	}
	if settled, released := l.Settle(a, 1, 0); !settled || !released {
		t.Fatal("a's last settle did not release it")
	}
	l.Kill(b)
	refused(b, 2) // handed back by Kill
}

// Kill hands back what was in flight in group order, handles attached, and
// leaves Die the backlog; Die on a live worker fails its in-flight groups in
// group order, then its backlog.
func TestKillAndDieHandBackInGroupOrder(t *testing.T) {
	l := NewLedger[int](false, 0)
	a, b := &Worker[int]{}, &Worker[int]{}
	l.Join(a, 3)
	l.Join(b, 3)
	l.Start(strategy.Config{Kind: strategy.PrePartition}, 8, func() []partition.Group { return make([]partition.Group, 8) }, nil)
	l.Arrive(a)
	l.Arrive(b)
	// a's backlog is 0, 2, 4, 6; b's 1, 3, 5, 7. a takes three, b one, and a
	// clone of b's 1 lands between a's.
	for range 3 {
		l.Next(a)
	}
	l.Next(b)
	l.Clone(a, 1)
	for _, f := range a.InFlight() {
		*a.Handle(f.Group) = 100 + f.Group
	}
	lost := l.Kill(a)
	if got := []Flight[int]{{0, 100}, {1, 101}, {2, 102}, {4, 104}}; !slices.Equal(lost, got) {
		t.Fatalf("Kill handed back %v, want %v", lost, got)
	}
	if len(a.InFlight()) != 0 {
		t.Fatalf("a killed worker holds %v", groups(a))
	}
	if got := l.Die(a); !slices.Equal(got, []int{6}) {
		t.Fatalf("Die after Kill lost %v, want the backlog [6]", got)
	}
	l.Next(b)
	if got := l.Die(b); !slices.Equal(got, []int{1, 3, 5, 7}) {
		t.Fatalf("Die lost %v, want in flight [1 3], then the backlog [5 7]", got)
	}
}

// The tail rule: past its slots a worker takes a group only while the queue
// holds more groups than the other live workers' windows take.
func TestTailRule(t *testing.T) {
	strat := strategy.Config{Kind: strategy.RealTime, Prefetch: 3}
	run := func(workers, n int) (*Ledger[int], []*Worker[int]) {
		l := NewLedger[int](false, 0)
		ws := make([]*Worker[int], workers)
		for i := range ws {
			ws[i] = &Worker[int]{}
			if err := l.Join(ws[i], 1); err != nil {
				t.Fatal(err)
			}
		}
		l.Start(strat, n, nil, nil)
		for _, w := range ws {
			l.Arrive(w)
			for {
				if _, ok := l.Next(w); !ok {
					break
				}
			}
		}
		return l, ws
	}
	// Four groups on four one-slot workers: one each, as at a window of one.
	_, ws := run(4, 4)
	for i, w := range ws {
		if len(w.InFlight()) != 1 {
			t.Fatalf("worker %d holds %v of 4 groups, want one", i, groups(w))
		}
	}
	// Eight on two: the first fills its window of three, as five would be
	// left for the other's three; the second stops at two, leaving three.
	l, ws := run(2, 8)
	if !slices.Equal(groups(ws[0]), []int{0, 1, 2}) || !slices.Equal(groups(ws[1]), []int{3, 4}) || len(l.Queue()) != 3 {
		t.Fatalf("in flight %v and %v, queue %v", groups(ws[0]), groups(ws[1]), l.Queue())
	}
	// A settle past the slots is not refilled while the queue holds no more
	// than the other's window; the one that frees a slot is.
	l.Settle(ws[0], 0, 0)
	if _, ok := l.Next(ws[0]); ok {
		t.Fatal("a pick past the slots with the queue down to the other's window")
	}
	l.Settle(ws[0], 1, 0)
	l.Settle(ws[0], 2, 0)
	if gi, ok := l.Next(ws[0]); !ok || gi != 5 {
		t.Fatalf("Next = %d, %v on a free slot; want the queue head 5", gi, ok)
	}
	// A lone worker has nobody to leave groups to: it fills its window to
	// the last group.
	l, ws = run(1, 2)
	if len(ws[0].InFlight()) != 2 || len(l.Queue()) != 0 {
		t.Fatalf("a lone worker holds %v of 2 groups", groups(ws[0]))
	}
}

// A real-time Prefetch of 0 starts every window, a joiner's too, at one
// group per slot; it may grow to MaxAutoPrefetch per slot for a long job of
// small groups, and stays at one for bulk ones (strategy.Config.ForJob).
func TestStartSizesWindowFromGroups(t *testing.T) {
	for _, tc := range []struct {
		size    int64
		ceiling int
	}{
		{1 << 10, 2 * strategy.MaxAutoPrefetch},
		{strategy.PipelineBytes, 2},
	} {
		l := NewLedger[int](false, 0)
		w, joiner := &Worker[int]{}, &Worker[int]{}
		l.Join(w, 2)
		groups := make([]partition.Group, strategy.JobShare*strategy.MaxAutoPrefetch)
		for i := range groups {
			groups[i].Files = []catalog.FileMeta{{Name: fmt.Sprint(i), Size: tc.size}}
		}
		l.Start(strategy.RealTimeRemote, len(groups), func() []partition.Group { return groups }, nil)
		l.Join(joiner, 2)
		for _, w := range []*Worker[int]{w, joiner} {
			if int(w.window) != 2 || l.Ceiling(w) != tc.ceiling || l.growing != (tc.ceiling > 2) {
				t.Errorf("groups of %d bytes: window %d, ceiling %d, growing %v; want 2, %d", tc.size, int(w.window), l.Ceiling(w), l.growing, tc.ceiling)
			}
		}
	}
}

// Join refuses a worker whose window would not fit, whatever the strategy.
func TestJoinBoundsSlots(t *testing.T) {
	l := NewLedger[int](false, 0)
	for _, slots := range []int{0, -1, MaxSlots + 1, 1 << 40} {
		if err := l.Join(&Worker[int]{}, slots); err == nil {
			t.Errorf("joined with %d slots", slots)
		}
	}
	if l.Live() != 0 {
		t.Fatalf("%d live after refusals", l.Live())
	}
	w := &Worker[int]{}
	if err := l.Join(w, MaxSlots); err != nil {
		t.Fatal(err)
	}
	l.Start(strategy.Config{Kind: strategy.RealTime, Prefetch: strategy.MaxPrefetch}, 1, nil, nil)
	if w.window != MaxSlots*strategy.MaxPrefetch {
		t.Fatalf("window %d, want %d", w.window, MaxSlots*strategy.MaxPrefetch)
	}
}

// Ledger operations as FuzzLedger encodes them: one byte per operation, the
// low four bits the kind (modulo opKinds) and the rest the worker it
// applies to.
const (
	opStart = iota
	opJoin
	opArrive
	opNext
	opOK
	opFail
	opDrain
	opDie
	opStage
	opStaged
	opClone
	opKill
	opKinds
)

// ledgerOp encodes one operation on worker w.
func ledgerOp(kind, w int) byte { return byte(w<<4 | kind) }

// ledgerSeed builds an input: nw initial workers, n groups, a retry budget
// (0 for the default) and each worker's slots, the recover, compute-to-data
// and pre-partition flags, real-time (else no-partition) when not
// pre-partitioned, then the operations. Real-time prefetches two per slot.
func ledgerSeed(nw, n, retries, slots int, recoverOn, c2d, prePartition, realTime bool, ops ...byte) []byte {
	h := byte(nw - 1)
	for i, on := range []bool{recoverOn, c2d, prePartition, realTime} {
		if on {
			h |= 1 << (3 + i)
		}
	}
	return append([]byte{h, byte(n - 1), byte(retries | (slots-1)<<2)}, ops...)
}

// grownSeed is a real-time input whose windows grow (a Prefetch of 0): the
// header's last bit.
func grownSeed(nw, n, retries, slots int, recoverOn bool, ops ...byte) []byte {
	in := ledgerSeed(nw, n, retries, slots, recoverOn, false, false, true, ops...)
	in[0] |= 128
	return in
}

// subsequence reports whether sub is xs with some elements left out.
func subsequence(sub, xs []int) bool {
	for _, x := range xs {
		if len(sub) > 0 && sub[0] == x {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}

// FuzzLedger drives one ledger the way an executor does — seeded
// interleavings of start (and its deal), join, arrive, next, ok, fail,
// drain, die, stage, staged, clone and kill over 1–8 workers, with Recover
// on and off — running the stall rule after every event as both executors'
// completion checks do. A pick claims its group's inputs for the worker
// (Held), as a fetching executor does. Every pick is the backlog head, else
// — under compute-to-data placement — the first queued group whose inputs
// are all in Held, else the queue head. After every operation it holds the
// ledger to: every started group is in exactly one of the queue, one
// backlog, in flight or terminal, and terminal once; each worker's
// in-flight list is the executor's record — its groups and its clones, in
// group order, with the handles attached — and a dead worker's is empty;
// Settle of a group not in flight on the worker is refused and changes
// nothing; Kill hands back the in-flight groups in group order, and Die
// fails them, then the backlog, in that order; no worker passes its window
// except by a clone; past its slots a worker is handed a group only while
// the queue holds more than the other live workers' windows (the tail
// rule); each live worker's window lies between its slots and its Ceiling,
// and, where the windows grow, at the same groups per slot for every
// worker, moved by the settles only, whose times the input gives and never
// go back; nothing is handed out while a staging item is open, or to a worker
// that is not ready, draining, dead or released; a released worker was
// draining and holds nothing; the live and arrived counts and the live
// workers' windows equal a recount; no group spends more than MaxRetries+1
// attempts; nothing stays queued with no live worker; and once every worker
// is dead, terminal equals the total. A clone is of another live worker's
// group that nobody clones yet; as in the simulator's race, a failure of
// either side leaves the group to the other.
func FuzzLedger(f *testing.F) {
	// The simulator's drain-then-last-worker-dies: two of three workers
	// drain, then the last undrained one dies holding work.
	for _, recoverOn := range []bool{false, true} {
		f.Add(ledgerSeed(3, 30, 0, 1, recoverOn, false, false, true,
			ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opArrive, 1), ledgerOp(opArrive, 2),
			ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opNext, 2),
			ledgerOp(opOK, 0), ledgerOp(opNext, 0),
			ledgerOp(opDrain, 1), ledgerOp(opDrain, 2), ledgerOp(opDie, 0),
			ledgerOp(opOK, 1), ledgerOp(opOK, 2)))
	}
	// A Recover requeue with only draining workers left: the undrained
	// worker dies, then the draining workers' attempts fail and requeue.
	f.Add(ledgerSeed(3, 12, 0, 2, true, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opArrive, 1), ledgerOp(opArrive, 2),
		ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opNext, 2),
		ledgerOp(opDrain, 1), ledgerOp(opDrain, 2), ledgerOp(opDie, 0),
		ledgerOp(opFail, 1), ledgerOp(opFail, 2)))
	// A worker drained before the pre-partition deal is released and dealt
	// nothing.
	f.Add(ledgerSeed(2, 8, 0, 1, false, false, true, false,
		ledgerOp(opArrive, 0), ledgerOp(opArrive, 1), ledgerOp(opDrain, 1),
		ledgerOp(opStart, 0), ledgerOp(opNext, 0), ledgerOp(opOK, 0)))
	// A staging phase: a worker dies holding its staging item and its
	// share, which requeues to the survivor once the phase ends.
	f.Add(ledgerSeed(2, 8, 3, 2, true, true, true, false,
		ledgerOp(opArrive, 0), ledgerOp(opArrive, 1), ledgerOp(opStart, 0),
		ledgerOp(opStage, 0), ledgerOp(opStage, 1), ledgerOp(opNext, 0),
		ledgerOp(opStaged, 0), ledgerOp(opNext, 0), ledgerOp(opDie, 1), ledgerOp(opStaged, 1),
		ledgerOp(opNext, 0), ledgerOp(opNext, 0), ledgerOp(opFail, 0), ledgerOp(opNext, 0),
		ledgerOp(opOK, 0), ledgerOp(opNext, 0)))
	// A joiner during a no-partition staging phase waits for it.
	f.Add(ledgerSeed(1, 6, 0, 1, false, false, false, false,
		ledgerOp(opArrive, 0), ledgerOp(opStart, 0), ledgerOp(opStage, 0), ledgerOp(opJoin, 0),
		ledgerOp(opArrive, 1), ledgerOp(opNext, 1), ledgerOp(opStaged, 0), ledgerOp(opNext, 1),
		ledgerOp(opNext, 0), ledgerOp(opOK, 1)))
	// An elastic join mid-run, retries exhausted on one group.
	f.Add(ledgerSeed(1, 4, 1, 1, true, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opNext, 0), ledgerOp(opFail, 0),
		ledgerOp(opNext, 0), ledgerOp(opFail, 0), ledgerOp(opJoin, 0),
		ledgerOp(opArrive, 1), ledgerOp(opNext, 1), ledgerOp(opDie, 0),
		ledgerOp(opNext, 1), ledgerOp(opOK, 1)))
	// A clone past the window, then the clone's host drains: released once
	// the clone and its own attempt settle.
	f.Add(ledgerSeed(2, 8, 0, 1, false, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opArrive, 1),
		ledgerOp(opNext, 0), ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opNext, 1),
		ledgerOp(opClone, 1), ledgerOp(opNext, 1), ledgerOp(opDrain, 1),
		ledgerOp(opOK, 1), ledgerOp(opOK, 1), ledgerOp(opOK, 1), ledgerOp(opNext, 1)))
	// The tail rule: three groups on two one-slot workers, one each; the
	// third waits for a free slot rather than behind the first.
	f.Add(ledgerSeed(2, 3, 0, 1, false, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opArrive, 1),
		ledgerOp(opNext, 0), ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opNext, 1),
		ledgerOp(opOK, 0), ledgerOp(opNext, 0), ledgerOp(opOK, 1), ledgerOp(opOK, 0)))
	// The simulator's two-halved death: killed at once, died later.
	f.Add(ledgerSeed(2, 6, 0, 1, true, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opArrive, 1),
		ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opKill, 0), ledgerOp(opNext, 0),
		ledgerOp(opNext, 1), ledgerOp(opDie, 0), ledgerOp(opOK, 1), ledgerOp(opNext, 1)))
	// One group failing on every attempt: the budget ends the retries.
	for _, retries := range []int{0, 1, 3} {
		f.Add(ledgerSeed(1, 1, retries, 1, true, false, false, true, ledgerOp(opStart, 0), ledgerOp(opArrive, 0),
			ledgerOp(opNext, 0), ledgerOp(opFail, 0), ledgerOp(opNext, 0), ledgerOp(opFail, 0),
			ledgerOp(opNext, 0), ledgerOp(opFail, 0), ledgerOp(opNext, 0), ledgerOp(opFail, 0),
			ledgerOp(opNext, 0), ledgerOp(opFail, 0)))
	}
	// Picks asked of a worker before it is ready, and of one that drains.
	f.Add(ledgerSeed(2, 6, 0, 1, false, true, true, false,
		ledgerOp(opStart, 0), ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opArrive, 1),
		ledgerOp(opDrain, 1), ledgerOp(opNext, 1), ledgerOp(opArrive, 0), ledgerOp(opNext, 0)))
	f.Add([]byte{0xff, 0xff, 0xff, 0x13, 0x2b, 0x3c, 0x45, 0x5e, 0x67, 0x70, 0x89, 0x9a, 0xab})
	// Compute-to-data past a group held only in part: after group 0 (file 0)
	// the pick skips group 5 (files 0 and 1) for group 10 (file 0).
	f.Add(ledgerSeed(1, 12, 0, 1, false, true, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opNext, 0), ledgerOp(opNext, 0),
		ledgerOp(opOK, 0), ledgerOp(opNext, 0)))
	// A requeued group picked after a later one goes in flight ahead of it:
	// Kill hands back 0 before 2.
	f.Add(ledgerSeed(1, 3, 0, 1, true, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opNext, 0), ledgerOp(opNext, 0),
		ledgerOp(opFail, 0), ledgerOp(opNext, 0), ledgerOp(opOK, 0), ledgerOp(opNext, 0),
		ledgerOp(opKill, 0), ledgerOp(opDie, 0)))
	// A race: the primary fails and the clone takes the group over.
	f.Add(ledgerSeed(2, 6, 0, 1, false, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opArrive, 1),
		ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opClone, 1), ledgerOp(opFail, 0),
		ledgerOp(opOK, 1), ledgerOp(opOK, 1), ledgerOp(opNext, 0)))
	// A race: the primary's worker dies, and the clone's finishes the group.
	f.Add(ledgerSeed(2, 6, 0, 1, true, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opArrive, 1),
		ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opClone, 1), ledgerOp(opDie, 0),
		ledgerOp(opOK, 1), ledgerOp(opOK, 1), ledgerOp(opDie, 1)))
	// Statuses repeated on a live worker, sent with nothing in flight, and
	// from a killed one.
	f.Add(ledgerSeed(1, 2, 0, 1, false, false, false, true,
		ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opNext, 0), ledgerOp(opOK, 0),
		ledgerOp(opOK, 0), ledgerOp(opFail, 0), ledgerOp(opNext, 0), ledgerOp(opKill, 0),
		ledgerOp(opOK, 0), ledgerOp(opFail, 0)))

	// The windows grow. A lone worker's statuses land a millisecond apart
	// for the first round, then twice as fast, so the doubling pays; then
	// almost four times as slow, so the next does not and the window steps
	// back; every attempt but the last fails under Recover, so there are
	// settles enough.
	grow := []byte{ledgerOp(opStart, 0), ledgerOp(opArrive, 0)}
	for i := range 120 {
		step := 4 // the worker nibble: a step of step/4 ms
		switch {
		case i >= 18:
			step = 15
		case i >= 9:
			step = 2
		}
		status := ledgerOp(opFail, step)
		if i%4 == 3 {
			status = ledgerOp(opOK, step)
		}
		grow = append(grow, ledgerOp(opNext, 0), ledgerOp(opNext, 0), status)
	}
	f.Add(grownSeed(1, 32, 3, 1, true, grow...))
	// Two two-slot workers while the windows grow: a joiner takes the
	// current groups per slot, a clone passes the window, one worker drains
	// and the other dies.
	pair := []byte{ledgerOp(opStart, 0), ledgerOp(opArrive, 0), ledgerOp(opArrive, 1)}
	for i := range 64 {
		wi := i % 2
		pair = append(pair, ledgerOp(opNext, wi), ledgerOp(opNext, wi), ledgerOp(opFail, wi), ledgerOp(opNext, wi), ledgerOp(opOK, wi))
		switch i {
		case 40:
			pair = append(pair, ledgerOp(opJoin, 0), ledgerOp(opArrive, 2), ledgerOp(opNext, 2))
		case 48:
			pair = append(pair, ledgerOp(opClone, 2))
		case 56:
			pair = append(pair, ledgerOp(opDrain, 1))
		}
	}
	f.Add(grownSeed(2, 32, 3, 2, true, append(pair, ledgerOp(opDie, 0), ledgerOp(opOK, 2), ledgerOp(opNext, 2))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		h := data[0]
		recoverOn, c2d := h&8 != 0, h&16 != 0
		strat := strategy.Config{Kind: strategy.NoPartition}
		switch {
		case h&32 != 0:
			strat.Kind = strategy.PrePartition
		case h&64 != 0:
			strat = strategy.Config{Kind: strategy.RealTime, Prefetch: 2}
			if h&128 != 0 {
				strat.Prefetch = 0
			}
		}
		if c2d {
			strat.Placement = strategy.ComputeToData
		}
		n := 1 + int(data[1])%32
		// The plan: group gi reads file gi%5, and an odd one file (gi+1)%5 too,
		// so groups share files and a worker may hold one in part.
		plan, at := make([]int32, 0, 2*n), make([]int32, n+1)
		for gi := range n {
			plan = append(plan, int32(gi%5))
			if gi%2 == 1 {
				plan = append(plan, int32((gi+1)%5))
			}
			at[gi+1] = int32(len(plan))
		}
		held := func(w *Worker[int], gi int) bool {
			for _, id := range plan[at[gi]:at[gi+1]] {
				if !w.Held.Has(id) {
					return false
				}
			}
			return true
		}
		retries, slots := int(data[2])%4, 1+int(data[2]>>2)%4
		budget := retries
		if budget == 0 {
			budget = DefaultMaxRetries
		}
		l := NewLedger[int](recoverOn, retries)
		l.Plan(plan, at)
		var workers []*Worker[int]
		// Per worker, the executor's record: the groups it runs (own, in pick
		// order, kept past a Kill until Die), the speculative copies it runs
		// of groups owned elsewhere (clones), its open staging items, whether
		// it was ever heard from, and whether it died or was released.
		var own, clones [][]int
		var stages []int
		var heard, gone []bool
		join := func() {
			if len(workers) < 8 {
				w := &Worker[int]{}
				workers, own, clones = append(workers, w), append(own, nil), append(clones, nil)
				stages, heard, gone = append(stages, 0), append(heard, false), append(gone, false)
				if err := l.Join(w, slots); err != nil {
					t.Fatal(err)
				}
			}
		}
		// windows sums the live workers' windows, but skip's.
		windows := func(skip *Worker[int]) int {
			sum := 0
			for _, w := range workers {
				if w.Live() && w != skip {
					sum += int(w.window)
				}
			}
			return sum
		}
		// handle is the executor's handle on group gi on worker wi.
		handle := func(wi, gi int) int { return gi<<3 | wi }
		// record is what the ledger must list in flight on worker wi: its own
		// groups and its clones, in group order, with their handles.
		record := func(wi int) []Flight[int] {
			var fs []Flight[int]
			for _, gi := range append(slices.Clone(own[wi]), clones[wi]...) {
				fs = append(fs, Flight[int]{gi, handle(wi, gi)})
			}
			slices.SortFunc(fs, func(a, b Flight[int]) int { return a.Group - b.Group })
			return fs
		}
		// cloneOf finds the worker running a clone of gi.
		cloneOf := func(gi int) (int, bool) {
			for wi := range workers {
				if slices.Contains(clones[wi], gi) {
					return wi, true
				}
			}
			return 0, false
		}
		for range 1 + int(h&7) {
			join()
		}
		// now is the time the settles bring; windowsOf lists each worker's
		// window, which only a settle (or a start or join) may move.
		now := 0.0
		windowsOf := func() []int {
			var ws []int
			for _, w := range workers {
				ws = append(ws, int(w.window))
			}
			return ws
		}
		terminal := make([]int, n)
		settle := func(gis ...int) {
			for _, gi := range gis {
				if terminal[gi]++; terminal[gi] > 1 {
					t.Fatalf("group %d terminal twice", gi)
				}
			}
		}
		started := false
		start := func() {
			started = true
			// The deal goes over the workers in reverse join order.
			order := slices.Clone(workers)
			slices.Reverse(order)
			l.Start(strat, n, func() []partition.Group { return make([]partition.Group, n) }, order)
		}
		open := 0 // staging items open
		released := func(wi int, rel bool) {
			w := workers[wi]
			if !rel {
				return
			}
			if !w.Draining || !w.Dead || len(own[wi])+len(clones[wi]) > 0 {
				t.Fatalf("worker %d released: draining %v, dead %v, own %v, clones %v", wi, w.Draining, w.Dead, own[wi], clones[wi])
			}
			heard[wi], gone[wi] = true, true
		}
		// stale settles group gi, not in flight on worker wi — a repeated,
		// stale or dead worker's status — and checks that nothing changed.
		stale := func(wi, gi int) {
			w := workers[wi]
			if w.Handle(gi) != nil {
				return
			}
			flight, dead, draining := slices.Clone(w.InFlight()), w.Dead, w.Draining
			live, arrived, terminal, queued := l.Live(), l.Arrived(), l.Terminal(), len(l.Queue())
			if settled, rel := l.Settle(w, gi, now); settled || rel {
				t.Fatalf("Settle(%d, %d) = %v, %v for a group not in flight there", wi, gi, settled, rel)
			}
			if !slices.Equal(w.InFlight(), flight) || w.Dead != dead || w.Draining != draining ||
				l.Live() != live || l.Arrived() != arrived || l.Terminal() != terminal || len(l.Queue()) != queued {
				t.Fatalf("a refused Settle(%d, %d) changed the ledger", wi, gi)
			}
		}
		fail := func(gi int) {
			if !l.Fail(gi) {
				settle(gi)
			}
		}
		// lost is the failure of an own attempt at gi: with a clone of it
		// running, the clone takes the group over (the simulator's race);
		// otherwise the group fails.
		lost := func(gi int) {
			if cw, ok := cloneOf(gi); ok {
				clones[cw] = slices.DeleteFunc(clones[cw], func(c int) bool { return c == gi })
				own[cw] = append(own[cw], gi)
				return
			}
			fail(gi)
		}
		// take settles w's oldest own attempt, if any, and repeats the
		// status, which must be refused.
		take := func(wi int) (int, bool) {
			if len(own[wi]) == 0 {
				return 0, false
			}
			gi := own[wi][0]
			own[wi] = own[wi][1:]
			settled, rel := l.Settle(workers[wi], gi, now)
			if !settled {
				t.Fatalf("worker %d's group %d not settled", wi, gi)
			}
			released(wi, rel)
			stale(wi, gi)
			return gi, true
		}
		// kill is the physical half of a death: the ledger hands back the
		// worker's groups in group order, with their handles.
		kill := func(wi int) {
			w := workers[wi]
			want := record(wi)
			if got := l.Kill(w); !slices.Equal(got, want) {
				t.Fatalf("Kill(%d) handed back %v, want %v", wi, got, want)
			}
			heard[wi] = true
		}
		// die is the master's reaction. Where no race is involved, Die fails
		// the groups in flight in group order, then the backlog; otherwise the
		// worker is killed first, its attempts settle one by one as the
		// simulator's do, and Die fails the backlog alone.
		die := func(wi int) {
			w := workers[wi]
			raced := len(clones[wi]) > 0
			for _, gi := range own[wi] {
				if _, ok := cloneOf(gi); ok {
					raced = true
				}
			}
			var want []int
			if !w.Dead && !raced {
				for _, f := range record(wi) {
					want = append(want, f.Group)
				}
				own[wi] = nil
			} else {
				if !w.Dead {
					kill(wi)
				}
				clones[wi] = nil // a clone's failure leaves its group to the owner
				gs := own[wi]
				own[wi] = nil
				for _, gi := range gs {
					lost(gi)
				}
			}
			want = append(want, w.Backlog...)
			got := l.Die(w)
			// What became terminal, in the order given: all of it without
			// Recover.
			if !subsequence(got, want) || (!recoverOn && !slices.Equal(got, want)) {
				t.Fatalf("Die(%d) lost %v, want in that order of %v", wi, got, want)
			}
			settle(got...)
			heard[wi], gone[wi] = true, true
		}
		check := func() {
			settle(l.Abandon()...)
			sum := 0
			for gi, c := range terminal {
				sum += c
				if !started {
					continue
				}
				if a := l.Attempts(gi); a > budget+1 || (!recoverOn && a > 1) {
					t.Fatalf("group %d spent %d attempts, budget %d (recover %v)", gi, a, budget, recoverOn)
				}
			}
			if sum != l.Terminal() {
				t.Fatalf("ledger counts %d terminal, the executor saw %d", l.Terminal(), sum)
			}
			if started {
				where := slices.Clone(terminal)
				for _, gi := range l.Queue() {
					where[gi]++
				}
				for wi, w := range workers {
					for _, gi := range w.Backlog {
						where[gi]++
					}
					for _, gi := range own[wi] {
						where[gi]++
					}
				}
				for gi, c := range where {
					if c != 1 {
						t.Fatalf("group %d is in %d places (queue %v)", gi, c, l.Queue())
					}
				}
			}
			live, arrived := 0, 0
			for wi, w := range workers {
				if w.Live() {
					live++
				}
				if heard[wi] {
					arrived++
				}
				// A killed worker keeps its backlog until it dies.
				if (gone[wi] || w.Draining) && len(w.Backlog) > 0 {
					t.Fatalf("worker %d (dead %v, draining %v) holds backlog %v", wi, w.Dead, w.Draining, w.Backlog)
				}
				// The ledger's record is the executor's, but for what a Kill
				// handed back.
				want := record(wi)
				if w.Dead {
					want = nil
				}
				if got := w.InFlight(); !slices.Equal(got, want) {
					t.Fatalf("worker %d (dead %v): the ledger has %v in flight, the executor %v", wi, w.Dead, got, want)
				}
			}
			for wi, w := range workers {
				if !w.Live() {
					continue
				}
				if win := int(w.window); win < int(w.slots) || win > l.Ceiling(w) {
					t.Fatalf("worker %d: window %d outside [%d, %d]", wi, win, w.slots, l.Ceiling(w))
				}
				if l.per > 0 && int(w.window) != int(w.slots*l.per) {
					t.Fatalf("worker %d: window %d, not %d per slot on %d slots", wi, int(w.window), l.per, w.slots)
				}
			}
			if live != l.Live() || arrived != l.Arrived() || l.windows != windows(nil) {
				t.Fatalf("ledger counts %d live, %d arrived and windows of %d, a recount %d, %d and %d",
					l.Live(), l.Arrived(), l.windows, live, arrived, windows(nil))
			}
			if live == 0 && len(l.Queue()) > 0 {
				t.Fatalf("no worker is live and %v stays queued", l.Queue())
			}
		}
		for i, b := range data[3:] {
			wi := int(b>>4) % len(workers)
			w := workers[wi]
			kind := int(b&15) % opKinds
			if kind == opOK || kind == opFail {
				// A status lands 0 to 3.75 ms after the last, a quarter of a
				// millisecond per unit of the worker nibble (0: in the same
				// wake).
				now += float64(b>>4) * 0.25e-3
			}
			before := windowsOf()
			switch kind {
			case opStart:
				if !started {
					start()
				}
			case opJoin:
				join()
			case opArrive:
				if !w.Dead {
					l.Arrive(w)
					heard[wi] = true
				}
			case opNext:
				want, headOK := l.Head(w)
				if c2d && len(w.Backlog) == 0 {
					for _, gi := range l.Queue() {
						if held(w, gi) {
							want = gi
							break
						}
					}
				}
				past, queued := len(w.InFlight()) >= int(w.slots), len(l.Queue())
				gi, ok := l.Next(w)
				if ok != headOK || (ok && gi != want) {
					t.Fatalf("Next = %d, %v; want %d, %v (compute-to-data %v)", gi, ok, want, headOK, c2d)
				}
				if ok {
					for _, id := range l.Inputs(gi) {
						w.Held.Add(id)
					}
					if !w.Ready || w.Draining || w.Dead || open > 0 {
						t.Fatalf("picked group %d for worker %d: ready %v, draining %v, dead %v, %d staging items open", gi, wi, w.Ready, w.Draining, w.Dead, open)
					}
					if others := windows(w); past && queued <= others {
						t.Fatalf("picked group %d for worker %d past its %d slots with %d queued, the others' windows %d", gi, wi, w.slots, queued, others)
					}
					if len(w.InFlight()) > int(w.window) {
						t.Fatalf("picked group %d for worker %d past its window of %d", gi, wi, w.window)
					}
					*w.Handle(gi) = handle(wi, gi)
					own[wi] = append(own[wi], gi)
				}
			case opOK:
				stale(wi, i%n)
				if w.Dead {
					break // a dead worker's attempts end through Die
				}
				if len(clones[wi]) > 0 {
					// A clone's end, its race lost or its own failure: settled,
					// with no outcome.
					gi := clones[wi][0]
					clones[wi] = clones[wi][1:]
					settled, rel := l.Settle(w, gi, now)
					if !settled {
						t.Fatalf("worker %d's clone of %d not settled", wi, gi)
					}
					released(wi, rel)
				} else if gi, ok := take(wi); ok {
					l.Succeed(gi)
					settle(gi)
				}
			case opFail:
				stale(wi, i%n)
				if w.Dead {
					break
				}
				if gi, ok := take(wi); ok {
					lost(gi)
				}
			case opDrain:
				if w.Live() {
					released(wi, l.Drain(w))
				}
			case opDie:
				die(wi)
			case opStage:
				l.Stage(w)
				stages[wi]++
				open++
			case opStaged:
				ended, want := l.Staged(w), false
				if stages[wi] > 0 {
					stages[wi]--
					open--
					want = open == 0
				}
				if ended != want {
					t.Fatalf("Staged(%d) = %v with %d items open", wi, ended, open)
				}
			case opClone:
				// A copy of another live worker's group that nobody clones
				// yet, onto w.
				if w.Dead {
					break
				}
			pick:
				for oi, o := range workers {
					for _, gi := range own[oi] {
						if _, cloned := cloneOf(gi); o != w && !o.Dead && !cloned {
							l.Clone(w, gi)
							*w.Handle(gi) = handle(wi, gi)
							clones[wi] = append(clones[wi], gi)
							break pick
						}
					}
				}
			case opKill:
				if !w.Dead {
					kill(wi)
				}
			}
			if kind != opOK && kind != opFail && kind != opStart {
				if after := windowsOf(); !slices.Equal(after[:len(before)], before) {
					t.Fatalf("op %d moved the windows from %v to %v", kind, before, after)
				}
			}
			check()
		}
		// The end: an unstarted run starts, every worker dies, and the stall
		// rule must leave nothing unsettled.
		if !started {
			start()
		}
		for wi := range workers {
			die(wi)
		}
		check()
		if !l.Finished() {
			t.Fatalf("every worker dead and %d/%d terminal, %d queued", l.Terminal(), n, len(l.Queue()))
		}
		for gi, c := range terminal {
			if c != 1 {
				t.Fatalf("group %d terminal %d times", gi, c)
			}
		}
	})
}
