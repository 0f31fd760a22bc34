package ctrlplane

import (
	"slices"
	"testing"
)

func TestColdLookupMisses(t *testing.T) {
	c := NewCache()
	if _, ok := c.Lookup(Key{Worker: "w1", Class: "queue"}); ok {
		t.Fatal("cold lookup hit")
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("stats after cold miss = %+v", s)
	}
}

func TestInstallThenHit(t *testing.T) {
	c := NewCache()
	k := Key{Worker: "w1", Class: "queue"}
	want := Decision{PickHead: true, SourceMaster: true}
	c.Lookup(k)
	c.Install(k, want)
	got, ok := c.Lookup(k)
	if !ok || got != want {
		t.Fatalf("Lookup after Install = %+v, %v; want %+v, true", got, ok, want)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestInvalidateStalesEveryEntry(t *testing.T) {
	c := NewCache()
	keys := []Key{
		{Worker: "w1", Class: "queue"},
		{Worker: "w2", Class: "queue"},
		{Worker: "w1", Class: "backlog"},
	}
	for _, k := range keys {
		c.Lookup(k)
		c.Install(k, Decision{PickHead: true})
	}
	for _, k := range keys {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("pre-invalidate lookup of %+v missed", k)
		}
	}
	gen := c.Generation()
	c.Invalidate()
	if c.Generation() != gen+1 {
		t.Fatalf("generation %d after Invalidate of %d", c.Generation(), gen)
	}
	for _, k := range keys {
		if _, ok := c.Lookup(k); ok {
			t.Fatalf("stale entry %+v survived invalidation", k)
		}
	}
	// Reinstall under the new generation: hits again.
	c.Install(keys[0], Decision{PickHead: true})
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Fatal("reinstalled entry missed at current generation")
	}
}

func TestKeysAreIndependent(t *testing.T) {
	c := NewCache()
	a := Key{Worker: "w1", Class: "queue"}
	b := Key{Worker: "w2", Class: "queue"}
	c.Lookup(a)
	c.Install(a, Decision{PickHead: true, SourceMaster: true})
	if _, ok := c.Lookup(b); ok {
		t.Fatal("worker w2 hit on w1's template")
	}
	if _, ok := c.Lookup(Key{Worker: "w1", Class: "backlog"}); ok {
		t.Fatal("class backlog hit on class queue's template")
	}
}

func TestNoteMissCountsUntemplatableDecisions(t *testing.T) {
	c := NewCache()
	c.NoteMiss()
	c.NoteMiss()
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses", s)
	}
}

func TestInvalidationsCounted(t *testing.T) {
	c := NewCache()
	c.Invalidate()
	c.Invalidate()
	c.Invalidate()
	if s := c.Stats(); s.Invalidations != 3 {
		t.Fatalf("Invalidations = %d, want 3", s.Invalidations)
	}
}

func TestLenCountsStaleEntries(t *testing.T) {
	c := NewCache()
	c.Install(Key{Worker: "w1", Class: "queue"}, Decision{})
	c.Invalidate()
	if c.Len() != 1 {
		t.Fatalf("Len = %d after invalidate, want 1 (lazy discard)", c.Len())
	}
	// Reinstalling the same key replaces, not grows.
	c.Install(Key{Worker: "w1", Class: "queue"}, Decision{})
	if c.Len() != 1 {
		t.Fatalf("Len = %d after reinstall, want 1", c.Len())
	}
}

// Pick and PopAt are the one task pick both executors call: simrun.nextTask,
// core.nextGroupLocked and — because templates always re-derive every hit in
// `friedabench -exp ctrlplane`, which CI diffs across runs and pool widths —
// simrun's control plane on every template hit. That CI guard is the integration
// harness; this table pins the function itself.
func TestPick(t *testing.T) {
	residentSet := func(gis ...int) func(int) bool {
		return func(gi int) bool {
			for _, r := range gis {
				if r == gi {
					return true
				}
			}
			return false
		}
	}
	cases := []struct {
		name      string
		queue     []int
		c2d       bool
		resident  func(int) bool
		wantIdx   int
		wantFound bool
	}{
		{"empty queue", nil, true, residentSet(1), 0, false},
		{"FIFO takes the head and never asks", []int{7, 8, 9}, false, nil, 0, false},
		{"c2d hit at the head", []int{7, 8, 9}, true, residentSet(7, 9), 0, true},
		{"c2d hit in the middle", []int{7, 8, 9}, true, residentSet(8, 9), 1, true},
		{"c2d hit at the tail", []int{7, 8, 9}, true, residentSet(9), 2, true},
		{"c2d nothing resident falls back to the head", []int{7, 8, 9}, true, residentSet(), 0, false},
	}
	for _, tc := range cases {
		idx, found := Pick(tc.queue, tc.c2d, tc.resident)
		if idx != tc.wantIdx || found != tc.wantFound {
			t.Errorf("%s: Pick = (%d, %v), want (%d, %v)", tc.name, idx, found, tc.wantIdx, tc.wantFound)
		}
	}
}

func TestPopAt(t *testing.T) {
	// Head: a re-slice of the same array — nothing moves, the callers' later
	// appends keep working, and the popped slot is simply out of view.
	backing := []int{1, 2, 3, 4}
	q := backing
	if gi := PopAt(&q, 0); gi != 1 || len(q) != 3 || cap(q) != 3 || &q[0] != &backing[1] {
		t.Fatalf("head pop: got %d, queue %v (cap %d)", gi, q, cap(q))
	}
	q = append(q, 5)
	if want := []int{2, 3, 4, 5}; !slices.Equal(q, want) {
		t.Fatalf("append after head pop: %v, want %v", q, want)
	}
	// Middle and tail: order of the rest is preserved.
	if gi := PopAt(&q, 2); gi != 4 || !slices.Equal(q, []int{2, 3, 5}) {
		t.Fatalf("middle pop: got %d, queue %v", gi, q)
	}
	if gi := PopAt(&q, 2); gi != 5 || !slices.Equal(q, []int{2, 3}) {
		t.Fatalf("tail pop: got %d, queue %v", gi, q)
	}
	// Down to empty, then reusable.
	PopAt(&q, 0)
	PopAt(&q, 0)
	if len(q) != 0 {
		t.Fatalf("queue not empty: %v", q)
	}
	if q = append(q, 9); PopAt(&q, 0) != 9 {
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
		idx, _ := Pick(q, true, func(gi int) bool { return has[gi] })
		sink += PopAt(&q, idx)
		copy(queue, []int{3, 1, 4, 1, 5, 9, 2, 6}) // undo the in-place shift
	})
	if allocs != 0 {
		t.Fatalf("Pick+PopAt allocate %v times per call, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("pick never ran")
	}
}
