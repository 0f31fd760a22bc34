package sched

import (
	"container/heap"
	"fmt"
	"testing"

	"frieda/internal/catalog"
	"frieda/internal/partition"
	"frieda/internal/strategy"
)

// pipe is a scripted real-time run for the window rule: a master whose
// messages take half of rtt each way, and one-slot workers that run their
// groups in the order they got them, worker w's each in cost[w] seconds.
// The master settles every status at the time it lands, those of one
// instant in one wake, and refills every worker after each wake.
type pipe struct {
	rtt  float64
	cost []float64
}

// landing is a status on its way to the master.
type landing struct {
	at    float64
	w, gi int
}

type landings []landing

func (h landings) Len() int           { return len(h) }
func (h landings) Less(i, j int) bool { return h[i].at < h[j].at }
func (h landings) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *landings) Push(x any)        { *h = append(*h, x.(landing)) }
func (h *landings) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// piped is what a pipe run reports: the makespan, the deepest window per
// slot it ran at, and the share of its groups handed out past one per slot.
type piped struct {
	makespan float64
	deepest  int
	past     float64
	l        *Ledger[int]
}

// run runs n groups of size bytes each under prefetch (0: the window rule).
func (p pipe) run(t *testing.T, n, prefetch int, size int64) piped {
	t.Helper()
	l := NewLedger[int](false, 0)
	ws := make([]*Worker[int], len(p.cost))
	for i := range ws {
		ws[i] = &Worker[int]{}
		if err := l.Join(ws[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	groups := make([]partition.Group, n)
	for i := range groups {
		groups[i].Files = []catalog.FileMeta{{Name: fmt.Sprint(i), Size: size}}
	}
	l.Start(strategy.Config{Kind: strategy.RealTime, Prefetch: prefetch}, n, func() []partition.Group { return groups }, nil)
	free := make([]float64, len(ws)) // when each worker is done with what it holds
	var h landings
	res := piped{l: l}
	past := 0
	dispatch := func(now float64) {
		for wi, w := range ws {
			for {
				gi, ok := l.Next(w)
				if !ok {
					break
				}
				if int(w.window) > 1 {
					past++
				}
				res.deepest = max(res.deepest, int(w.window))
				free[wi] = max(now+p.rtt/2, free[wi]) + p.cost[wi]
				heap.Push(&h, landing{free[wi] + p.rtt/2, wi, gi})
			}
		}
	}
	for _, w := range ws {
		l.Arrive(w)
	}
	dispatch(0)
	for h.Len() > 0 {
		now := h[0].at
		for h.Len() > 0 && h[0].at == now {
			s := heap.Pop(&h).(landing)
			if settled, _ := l.Settle(ws[s.w], s.gi, now); !settled {
				t.Fatalf("group %d not in flight on worker %d", s.gi, s.w)
			}
			l.Succeed(s.gi)
		}
		res.makespan = now
		dispatch(now)
	}
	if !l.Finished() {
		t.Fatalf("%d of %d groups terminal", l.Terminal(), n)
	}
	res.past = float64(past) / float64(n)
	return res
}

// Cheap groups on a lone worker: a window of 64 hides 100 µs of exchange
// behind 1 µs groups, so every doubling pays and the window reaches the
// ceiling, where it stays.
func TestWindowGrowsOnCheapGroups(t *testing.T) {
	r := pipe{rtt: 100e-6, cost: []float64{1e-6}}.run(t, 20000, 0, 1<<10)
	if r.deepest != strategy.MaxAutoPrefetch || r.l.per != strategy.MaxAutoPrefetch || r.l.Growing() {
		t.Fatalf("deepest window %d, ending at %d per slot, growing %v; want the ceiling %d, no longer growing",
			r.deepest, r.l.per, r.l.Growing(), strategy.MaxAutoPrefetch)
	}
}

// Compute-heavy groups: 20 ms each behind a 100 µs exchange. A second group
// per slot gains 0.5%, under payRise, so each test of it fails, and the
// tests thin out as the holds double: one group per slot all but a few
// percent of the run, and never more than two.
func TestWindowStaysOnComputeHeavyGroups(t *testing.T) {
	for _, cost := range [][]float64{{20e-3}, {20e-3, 40e-3}} {
		r := pipe{rtt: 100e-6, cost: cost}.run(t, 4000, 0, 1<<10)
		if r.deepest > 2 || r.past > 0.1 {
			t.Errorf("%d workers: deepest window %d, %.0f%% of groups past one per slot; want at most 2 and 10%%",
				len(cost), r.deepest, 100*r.past)
		}
	}
}

// Bulk groups keep one per slot from the first dispatch, without
// measuring, however much a deeper window would gain.
func TestWindowBulkNeverGrows(t *testing.T) {
	r := pipe{rtt: 100e-6, cost: []float64{1e-6, 1e-6}}.run(t, 2000, 0, strategy.PipelineBytes)
	if r.deepest != 1 || r.l.Growing() {
		t.Fatalf("bulk groups: deepest window %d, growing %v; want 1 and not growing", r.deepest, r.l.Growing())
	}
}

// A lone worker and a pair whose second runs at half the speed finish
// within 5% of the best fixed window, on groups that want a deep window and
// on groups that want none.
func TestWindowNearBestFixed(t *testing.T) {
	for _, tc := range []struct {
		name string
		cost []float64
		n    int
	}{
		{"lone cheap", []float64{5e-6}, 40000},
		{"pair cheap", []float64{5e-6, 10e-6}, 40000},
		{"lone heavy", []float64{20e-3}, 400},
		{"pair heavy", []float64{20e-3, 40e-3}, 400},
	} {
		p := pipe{rtt: 100e-6, cost: tc.cost}
		best, at := 0.0, 0
		for prefetch := 1; prefetch <= strategy.MaxAutoPrefetch; prefetch *= 2 {
			if r := p.run(t, tc.n, prefetch, 1<<10); best == 0 || r.makespan < best {
				best, at = r.makespan, prefetch
			}
		}
		if r := p.run(t, tc.n, 0, 1<<10); r.makespan > 1.05*best {
			t.Errorf("%s: the rule finishes in %.4f s, the best fixed window (%d) in %.4f s", tc.name, r.makespan, at, best)
		}
	}
}
