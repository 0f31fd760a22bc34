package sim

import (
	"math/rand"
	"sync"
	"testing"
)

// An arena hands out distinct zeroed records in chunks that double from
// arenaFirst up to arenaMax bytes, and Reserve serves a known batch from one
// chunk.
func TestArenaChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	type rec struct { // 64 bytes
		n    int
		p    *rec
		more [6]int
	}
	take := func(a *Arena[rec], n int) {
		var prev *rec
		for i := 0; i < n; i++ {
			r := a.New()
			if *r != (rec{}) || r == prev {
				t.Fatalf("record %d is reused or not zeroed: %+v", i, *r)
			}
			r.n, r.p = i, prev
			prev = r
		}
	}
	// 15 + 31 + 63 + 127 + 255 records in the doubling chunks (1 KiB to
	// 16 KiB, less the allocator's 8-byte header), then 3,000 - 491 = 2,509
	// more in 10 chunks of 255.
	if allocs := testing.AllocsPerRun(5, func() { take(new(Arena[rec]), 3000) }); allocs != 5+10 {
		t.Fatalf("3,000 records take %v chunks, want 15", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		var a Arena[rec]
		a.Reserve(3000)
		take(&a, 3000)
	}); allocs != 1 {
		t.Fatalf("3,000 reserved records take %v chunks, want 1", allocs)
	}
	// Freeing a batch that was all in use at once grows the free stack once.
	recs := make([]*rec, 3000)
	if allocs := testing.AllocsPerRun(5, func() {
		var a Arena[rec]
		a.Reserve(len(recs))
		for i := range recs {
			recs[i] = a.New()
		}
		for _, r := range recs {
			a.Free(r)
		}
	}); allocs != 2 {
		t.Fatalf("3,000 reserved records made and freed take %v allocations, want 2 (a chunk and the stack)", allocs)
	}
}

// Two engines on two goroutines churn schedules, cancels and fires at once.
// Each engine's events are its own: no ref one engine hands out is an event
// of the other, so none is ever pending there, and under -race the race
// detector sees no storage shared between the goroutines.
func TestEnginesShareNoEvents(t *testing.T) {
	const rounds = 5000
	engines := [2]*Engine{NewEngine(), NewEngine()}
	seen := [2]map[*Event]bool{{}, {}}
	var wg sync.WaitGroup
	for k := range engines {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			eng := engines[k]
			rng := rand.New(rand.NewSource(int64(k)))
			var live []EventRef
			for i := 0; i < rounds; i++ {
				if j := rng.Intn(3); j < 2 || len(live) == 0 {
					ref := eng.Schedule(Duration(rng.Float64()), func() {})
					seen[k][ref.ev] = true
					live = append(live, ref)
				} else {
					j = rng.Intn(len(live))
					live[j].Cancel()
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if i%16 == 0 {
					eng.Step()
				}
			}
			eng.Run()
		}(k)
	}
	wg.Wait()
	for k, eng := range engines {
		for ev := range seen[k] {
			if ev.owner != eng || seen[1-k][ev] {
				t.Fatalf("engine %d handed out an event of engine %d", k, 1-k)
			}
		}
	}
}

// A freed record is the next one New hands out, zeroed, last freed first,
// and Reserve counts the freed records it will serve before a chunk.
func TestArenaReusesFreed(t *testing.T) {
	type rec struct {
		n int
		p *rec
	}
	var a Arena[rec]
	x, y := a.New(), a.New()
	x.n, x.p = 1, y
	y.n = 2
	a.Free(x)
	a.Free(y)
	if got := a.New(); got != y || *got != (rec{}) {
		t.Fatalf("New after Free(x), Free(y) = %p %+v, want y (%p) zeroed", got, *got, y)
	}
	if got := a.New(); got != x || *got != (rec{}) {
		t.Fatalf("second New = %p %+v, want x (%p) zeroed", got, *got, x)
	}
	fresh := len(a.free)
	a.Free(x)
	for i := 0; i < 1000; i++ { // one in use at a time: always the same record
		if got := a.New(); got != x {
			t.Fatalf("New after Free(x) = %p, want x (%p)", got, x)
		}
		a.Free(x)
	}
	if len(a.free) != fresh {
		t.Fatalf("a record freed and taken back 1,000 times used %d fresh records", fresh-len(a.free))
	}
	var b Arena[rec]
	for i := 0; i < 3; i++ {
		b.Free(b.New())
	}
	b.Reserve(100) // the freed record and a new chunk for the other 99
	if len(b.free) != 99 {
		t.Fatalf("Reserve(100) over one freed record left %d fresh records, want 99", len(b.free))
	}
}
