package sched

import (
	"slices"
	"testing"
)

// pick and popAt are the task pick both executors make through Next — and,
// because templates always re-derive every hit in `friedabench -exp
// ctrlplane`, which CI diffs across runs and pool widths, the simulator's
// control plane on every template hit. That CI guard is the integration
// harness; this table pins the function itself.
func TestPick(t *testing.T) {
	residentSet := func(gis ...int) func(int) bool {
		return func(gi int) bool { return slices.Contains(gis, gi) }
	}
	cases := []struct {
		name     string
		queue    []int
		resident func(int) bool
		want     int
	}{
		{"FIFO takes the head and never asks", []int{7, 8, 9}, nil, 0},
		{"c2d hit at the head", []int{7, 8, 9}, residentSet(7, 9), 0},
		{"c2d hit in the middle", []int{7, 8, 9}, residentSet(8, 9), 1},
		{"c2d hit at the tail", []int{7, 8, 9}, residentSet(9), 2},
		{"c2d nothing resident falls back to the head", []int{7, 8, 9}, residentSet(), 0},
	}
	for _, tc := range cases {
		if got := pick(tc.queue, tc.resident); got != tc.want {
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
// master's mutex: a predicate that captures its caller's state must stay on
// the stack.
func TestPickDoesNotAllocate(t *testing.T) {
	queue := []int{3, 1, 4, 1, 5, 9, 2, 6}
	has := map[int]bool{2: true}
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		q := queue
		sink += popAt(&q, pick(q, func(gi int) bool { return has[gi] }))
		copy(queue, []int{3, 1, 4, 1, 5, 9, 2, 6}) // undo the in-place shift
	})
	if allocs != 0 {
		t.Fatalf("pick+popAt allocate %v times per call, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("pick never ran")
	}
}

// Next with a compute-to-data predicate is what both executors call per
// dispatch; the closure and the ledger's own bookkeeping must not allocate.
func TestNextDoesNotAllocate(t *testing.T) {
	// Every pick is requeued at once, under an unbounded budget, so the
	// queue keeps its length and its array.
	l := NewLedger(true, 1<<30)
	w := &Worker{Ready: true}
	l.Join(w)
	l.Start(8)
	l.QueueAll()
	has := map[int]bool{5: true}
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		gi, ok := l.Next(w, func(gi int) bool { return has[gi] })
		if !ok || gi != 5 {
			t.Fatalf("Next = %d, %v; want the resident 5", gi, ok)
		}
		sink += gi
		l.Fail(gi)
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %v times per call, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("Next never ran")
	}
}

// Ledger operations as FuzzLedger encodes them: one byte per operation, the
// low three bits the kind and the rest the worker it applies to.
const (
	opDeal = iota
	opJoin
	opReady
	opNext
	opOK
	opFail
	opDrain
	opDie
)

// ledgerOp encodes one operation on worker w.
func ledgerOp(kind, w int) byte { return byte(w<<3 | kind) }

// ledgerSeed builds an input: nw initial workers, n groups, a retry budget
// (0 for the default), the recover, compute-to-data and pre-partition
// flags, then the operations.
func ledgerSeed(nw, n, retries int, recoverOn, c2d, prePartition bool, ops ...byte) []byte {
	h := byte(nw - 1)
	for i, on := range []bool{recoverOn, c2d, prePartition} {
		if on {
			h |= 1 << (3 + i)
		}
	}
	return append([]byte{h, byte(n - 1), byte(retries)}, ops...)
}

// FuzzLedger drives one ledger the way an executor does — seeded
// interleavings of deal, join, ready, next, ok, fail, drain and die over
// 1–8 workers, with Recover on and off — running the stall rule after every
// event as both executors' completion checks do. It holds the ledger to:
// every group ends terminal exactly once; nothing is picked for a worker
// that is not ready, is draining or is dead, and no such worker holds a
// backlog; no group spends more than MaxRetries+1 attempts; nothing stays
// queued with no live worker; and once every worker is dead, terminal
// equals the total.
func FuzzLedger(f *testing.F) {
	// The simulator's drain-then-last-worker-dies: two of three workers
	// drain, then the last undrained one dies holding work.
	for _, recoverOn := range []bool{false, true} {
		f.Add(ledgerSeed(3, 30, 0, recoverOn, false, false,
			ledgerOp(opReady, 0), ledgerOp(opReady, 1), ledgerOp(opReady, 2),
			ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opNext, 2),
			ledgerOp(opOK, 0), ledgerOp(opNext, 0),
			ledgerOp(opDrain, 1), ledgerOp(opDrain, 2), ledgerOp(opDie, 0),
			ledgerOp(opOK, 1), ledgerOp(opOK, 2)))
	}
	// A Recover requeue with only draining workers left: the undrained
	// worker dies, then the draining workers' attempts fail and requeue.
	f.Add(ledgerSeed(3, 12, 0, true, false, false,
		ledgerOp(opReady, 0), ledgerOp(opReady, 1), ledgerOp(opReady, 2),
		ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opNext, 2),
		ledgerOp(opDrain, 1), ledgerOp(opDrain, 2), ledgerOp(opDie, 0),
		ledgerOp(opFail, 1), ledgerOp(opFail, 2)))
	// A worker drained before the pre-partition deal gets no backlog.
	f.Add(ledgerSeed(2, 8, 0, false, false, true,
		ledgerOp(opReady, 0), ledgerOp(opReady, 1), ledgerOp(opDrain, 1),
		ledgerOp(opDeal, 0), ledgerOp(opNext, 0), ledgerOp(opOK, 0)))
	// A pre-partition share dealt to a worker that died during the transfer.
	f.Add(ledgerSeed(2, 8, 3, true, true, true,
		ledgerOp(opReady, 0), ledgerOp(opReady, 1), ledgerOp(opDie, 1),
		ledgerOp(opDeal, 0), ledgerOp(opNext, 0), ledgerOp(opFail, 0),
		ledgerOp(opNext, 0), ledgerOp(opOK, 0)))
	// An elastic join mid-run, retries exhausted on one group.
	f.Add(ledgerSeed(1, 4, 1, true, false, false,
		ledgerOp(opReady, 0), ledgerOp(opNext, 0), ledgerOp(opFail, 0),
		ledgerOp(opNext, 0), ledgerOp(opFail, 0), ledgerOp(opJoin, 0),
		ledgerOp(opReady, 1), ledgerOp(opNext, 1), ledgerOp(opDie, 0),
		ledgerOp(opNext, 1), ledgerOp(opOK, 1)))
	// One group failing on every attempt: the budget ends the retries.
	for _, retries := range []int{0, 1, 3} {
		f.Add(ledgerSeed(1, 1, retries, true, false, false, ledgerOp(opReady, 0),
			ledgerOp(opNext, 0), ledgerOp(opFail, 0), ledgerOp(opNext, 0), ledgerOp(opFail, 0),
			ledgerOp(opNext, 0), ledgerOp(opFail, 0), ledgerOp(opNext, 0), ledgerOp(opFail, 0),
			ledgerOp(opNext, 0), ledgerOp(opFail, 0)))
	}
	// Picks asked of a worker before it is ready, and of one that drains.
	f.Add(ledgerSeed(2, 6, 0, false, true, true,
		ledgerOp(opDeal, 0), ledgerOp(opNext, 0), ledgerOp(opNext, 1), ledgerOp(opReady, 1),
		ledgerOp(opDrain, 1), ledgerOp(opNext, 1), ledgerOp(opReady, 0), ledgerOp(opNext, 0)))
	f.Add([]byte{0xff, 0xff, 0xff, 0x13, 0x2b, 0x3c, 0x45, 0x5e, 0x67, 0x70, 0x89})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		h := data[0]
		recoverOn, c2d, prePartition := h&8 != 0, h&16 != 0, h&32 != 0
		n := 1 + int(data[1])%32
		retries := int(data[2]) % 4
		budget := retries
		if budget == 0 {
			budget = DefaultMaxRetries
		}
		l := NewLedger(recoverOn, retries)
		l.Start(n)
		var workers []*Worker
		var inflight [][]int
		join := func() {
			if len(workers) < 8 {
				w := &Worker{}
				workers, inflight = append(workers, w), append(inflight, nil)
				l.Join(w)
			}
		}
		for range 1 + int(h&7) {
			join()
		}
		terminal := make([]int, n)
		settle := func(gis ...int) {
			for _, gi := range gis {
				if terminal[gi]++; terminal[gi] > 1 {
					t.Fatalf("group %d terminal twice", gi)
				}
			}
		}
		dealt := !prePartition
		if dealt {
			l.QueueAll()
		}
		// deal is the pre-partition deal: round-robin over every joined
		// worker, some of which may have died or begun draining since the
		// plan (the real master's transfer phase).
		deal := func() {
			dealt = true
			share := make([][]int, len(workers))
			for gi := range n {
				share[gi%len(workers)] = append(share[gi%len(workers)], gi)
			}
			for wi, w := range workers {
				settle(l.Deal(w, share[wi])...)
			}
		}
		// take pops w's oldest in-flight attempt, if any.
		take := func(wi int) (int, bool) {
			if len(inflight[wi]) == 0 {
				return 0, false
			}
			gi := inflight[wi][0]
			inflight[wi] = inflight[wi][1:]
			return gi, true
		}
		fail := func(gi int) {
			if !l.Fail(gi) {
				settle(gi)
			}
		}
		die := func(wi int) {
			w := workers[wi]
			if w.Dead {
				return
			}
			settle(l.Die(w, inflight[wi])...)
			inflight[wi] = nil
		}
		check := func() {
			settle(l.Abandon()...)
			sum := 0
			for gi, c := range terminal {
				sum += c
				if a := l.Attempts(gi); a > budget+1 || (!recoverOn && a > 1) {
					t.Fatalf("group %d spent %d attempts, budget %d (recover %v)", gi, a, budget, recoverOn)
				}
			}
			if sum != l.Terminal() {
				t.Fatalf("ledger counts %d terminal, the executor saw %d", l.Terminal(), sum)
			}
			live := false
			for wi, w := range workers {
				live = live || !w.Dead && !w.Draining
				if (w.Dead || w.Draining) && len(w.Backlog) > 0 {
					t.Fatalf("worker %d (dead %v, draining %v) holds backlog %v", wi, w.Dead, w.Draining, w.Backlog)
				}
			}
			if !live && len(l.Queue()) > 0 {
				t.Fatalf("no worker is live and %v stays queued", l.Queue())
			}
		}
		for _, b := range data[3:] {
			wi := int(b>>3) % len(workers)
			w := workers[wi]
			switch b & 7 {
			case opDeal:
				if !dealt {
					deal()
				}
			case opJoin:
				join()
			case opReady:
				if !w.Dead {
					w.Ready = true
				}
			case opNext:
				resident := func(gi int) bool { return gi%len(workers) == wi }
				if !c2d {
					resident = nil
				}
				if gi, ok := l.Next(w, resident); ok {
					if !w.Ready || w.Draining || w.Dead {
						t.Fatalf("picked group %d for worker %d: ready %v, draining %v, dead %v", gi, wi, w.Ready, w.Draining, w.Dead)
					}
					inflight[wi] = append(inflight[wi], gi)
				}
			case opOK:
				if gi, ok := take(wi); ok {
					l.Succeed(gi)
					settle(gi)
				}
			case opFail:
				if gi, ok := take(wi); ok {
					fail(gi)
				}
			case opDrain:
				if w.Live() {
					l.Drain(w)
				}
			case opDie:
				die(wi)
			}
			check()
		}
		// The end: whatever was never dealt is dealt, every worker dies, and
		// the stall rule must leave nothing unsettled.
		if !dealt {
			deal()
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
