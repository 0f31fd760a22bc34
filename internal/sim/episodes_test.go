package sim

import (
	"math/rand"
	"testing"
)

// edgeRec is one applied edge: which schedule, target and direction, and
// when.
type edgeRec struct {
	sched, i int
	down     bool
	at       Time
}

// recorder returns an Edge for schedule sched that appends to log and
// returns up (after an up edge) or out (after a down edge).
func recorder(eng *Engine, log *[]edgeRec, sched int, up, out float64) Edge {
	return func(i int, down bool) float64 {
		*log = append(*log, edgeRec{sched, i, down, eng.Now()})
		if down {
			return out
		}
		return up
	}
}

func TestEpisodesEqualSeedsEqualEdges(t *testing.T) {
	run := func(seed int64) []edgeRec {
		eng := NewEngine()
		var log []edgeRec
		s := NewEpisodes(eng, rand.New(rand.NewSource(seed)), 3, recorder(eng, &log, 0, 50, 10))
		for i := 0; i < 3; i++ {
			s.Arm(i, 50)
		}
		eng.RunUntil(2000)
		s.Stop()
		return log
	}
	a, b := run(9), run(9)
	if len(a) < 10 || len(a) != len(b) {
		t.Fatalf("edge counts %d vs %d", len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("edge %d: %+v vs %+v", k, a[k], b[k])
		}
	}
	// Each target alternates, starting down.
	last := map[int]bool{}
	for _, e := range a {
		if e.down == last[e.i] {
			t.Fatalf("target %d repeated an edge at %v", e.i, e.at)
		}
		last[e.i] = e.down
	}
}

// TestEpisodesShareRNGInEventOrder: two schedules on one rng (a disk's death
// and degrade schedules) draw in the order their edges fire, each draw right
// after its edge. A replay drawing the same stream in that order predicts
// every edge time.
func TestEpisodesShareRNGInEventOrder(t *testing.T) {
	const seed = 4
	eng := NewEngine()
	rng := rand.New(rand.NewSource(seed))
	var log []edgeRec
	means := [2][2]float64{{40, 8}, {25, 15}} // [schedule]{up, outage}
	a := NewEpisodes(eng, rng, 2, recorder(eng, &log, 0, means[0][0], means[0][1]))
	b := NewEpisodes(eng, rng, 2, recorder(eng, &log, 1, means[1][0], means[1][1]))
	for i := 0; i < 2; i++ {
		a.Arm(i, means[0][0])
		b.Arm(i, means[1][0])
	}
	eng.RunUntil(1000)

	ref := rand.New(rand.NewSource(seed))
	var next [2][2]Time
	for i := 0; i < 2; i++ {
		next[0][i] = Exp(ref, means[0][0])
		next[1][i] = Exp(ref, means[1][0])
	}
	if len(log) < 20 {
		t.Fatalf("only %d edges", len(log))
	}
	for k, e := range log {
		if e.at != next[e.sched][e.i] {
			t.Fatalf("edge %d (%+v): want time %v", k, e, next[e.sched][e.i])
		}
		mean := means[e.sched][0]
		if e.down {
			mean = means[e.sched][1]
		}
		next[e.sched][e.i] = e.at + Exp(ref, mean)
	}
}

// TestEpisodesZeroOutageRearmsAtOnce: a down edge whose outage mean is 0
// (a disk death) applies the up edge at the same instant, with no draw and
// no event of its own.
func TestEpisodesZeroOutageRearmsAtOnce(t *testing.T) {
	eng := NewEngine()
	var log []edgeRec
	s := NewEpisodes(eng, rand.New(rand.NewSource(2)), 1, recorder(eng, &log, 0, 30, 0))
	s.Arm(0, 30)
	eng.RunUntil(1000)
	if len(log) < 10 || len(log)%2 != 0 {
		t.Fatalf("%d edges", len(log))
	}
	for k := 0; k < len(log); k += 2 {
		d, u := log[k], log[k+1]
		if !d.down || u.down || d.at != u.at {
			t.Fatalf("edges %d, %d: %+v then %+v", k, k+1, d, u)
		}
	}
	if fired := int(eng.Fired()); fired != len(log)/2 {
		t.Fatalf("%d events for %d deaths", fired, len(log)/2)
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d, want the next death", eng.Pending())
	}
}

func TestEpisodesStopDrains(t *testing.T) {
	eng := NewEngine()
	var log []edgeRec
	s := NewEpisodes(eng, rand.New(rand.NewSource(1)), 4, recorder(eng, &log, 0, 10, 5))
	for i := 0; i < 4; i++ {
		s.Arm(i, 10)
	}
	eng.RunUntil(100)
	s.Stop()
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after Stop", eng.Pending())
	}
	n := len(log)
	eng.Run()
	if len(log) != n {
		t.Fatal("edges fired after Stop")
	}

	// A Stop from inside an edge callback arms no successor either.
	var self *Episodes
	edges := 0
	self = NewEpisodes(eng, rand.New(rand.NewSource(1)), 1, func(int, bool) float64 {
		edges++
		self.Stop()
		return 5
	})
	self.Arm(0, 10)
	eng.Run()
	if edges != 1 || eng.Pending() != 0 {
		t.Fatalf("%d edges, %d pending after a Stop from an edge", edges, eng.Pending())
	}
}

// TestEpisodesSteadyStateAllocs: an edge reuses its target's record as the
// handler of the next one, so a running schedule allocates nothing beyond
// what the engine's free list already holds.
func TestEpisodesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	eng := NewEngine()
	s := NewEpisodes(eng, rand.New(rand.NewSource(3)), 8, func(_ int, down bool) float64 {
		if down {
			return 2
		}
		return 10
	})
	for i := 0; i < 8; i++ {
		s.Arm(i, 10)
	}
	eng.RunUntil(1000) // warm the free list
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunUntil(eng.Now() + 100)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per 100 s of edges, want 0", allocs)
	}
}
