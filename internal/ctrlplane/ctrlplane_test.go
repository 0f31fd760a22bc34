package ctrlplane

import "testing"

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
	gen := c.gen
	c.Invalidate()
	if c.gen != gen+1 {
		t.Fatalf("generation %d after Invalidate of %d", c.gen, gen)
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
