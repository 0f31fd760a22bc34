// Package exprun is a deterministic parallel experiment orchestrator. It
// fans independent experiment cells — one (config, workload, seed) point of
// a sweep — across a pool of goroutines and collects their results into a
// slot-indexed slice, so the output order (and therefore every printed
// table, CSV and golden file) is byte-identical to a sequential run
// regardless of how the scheduler interleaves the work.
//
// Determinism argument: each cell runs a fully self-contained simulation
// (its own sim.Engine, seeded RNGs, workload copy); cells share nothing
// mutable. The pool only decides *when* a cell runs, never *what* it
// computes, and results land at the cell's own index. A panic inside a cell
// is captured with the cell's coordinates instead of killing the sweep, so
// one bad parameter point cannot take down an overnight grid.
package exprun

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Cell is one independent unit of a sweep. Label carries the cell's
// coordinates (e.g. "table1/ALS/sequential/seed=1") for error reports.
type Cell[T any] struct {
	Label string
	Run   func() (T, error)
}

// CellError records the failure of a single cell, with enough coordinates
// to re-run it in isolation.
type CellError struct {
	Index int    // slot in the sweep
	Label string // cell coordinates
	Err   error  // the cell's error, or a wrapped panic
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %d (%s): %v", e.Index, e.Label, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// SweepError aggregates every failed cell of a sweep, in slot order. The
// successful cells' results are still returned alongside it, so a sweep
// summary can render partial rows and list exactly which cells failed.
type SweepError struct {
	Total int // number of cells in the sweep
	Cells []*CellError
}

func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d cells failed:", len(e.Cells), e.Total)
	for _, c := range e.Cells {
		b.WriteString("\n  ")
		b.WriteString(c.Error())
	}
	return b.String()
}

// panicError wraps a recovered panic value so it travels as an error with
// the goroutine stack attached.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.value, e.stack)
}

// Pool runs cells on up to workers goroutines. The zero value is not
// usable; call New. A Pool is stateless between Run calls and safe for
// concurrent use: two sweeps may share one Pool.
type Pool struct {
	workers int
}

// New returns a pool of the given width. workers <= 0 means GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Run executes every cell and returns their results in cell order. With
// workers == 1 (or a single cell) it runs inline on the caller's goroutine —
// exactly the sequential path. Otherwise min(workers, len(cells))
// goroutines claim cells by atomic counter and write results into the
// cell's own slot. Failed cells leave a zero T in their slot and are
// reported together in a *SweepError; err is nil iff every cell succeeded.
//
// Run is a free function rather than a method because Go methods cannot
// introduce type parameters.
func Run[T any](p *Pool, cells []Cell[T]) ([]T, error) {
	results := make([]T, len(cells))
	errs := make([]*CellError, len(cells))
	if p.workers == 1 || len(cells) <= 1 {
		for i := range cells {
			runCell(cells, results, errs, i)
		}
	} else {
		workers := p.workers
		if workers > len(cells) {
			workers = len(cells)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cells) {
						return
					}
					runCell(cells, results, errs, i)
				}
			}()
		}
		wg.Wait()
	}
	var failed []*CellError
	for _, e := range errs {
		if e != nil {
			failed = append(failed, e)
		}
	}
	if len(failed) > 0 {
		return results, &SweepError{Total: len(cells), Cells: failed}
	}
	return results, nil
}

// runCell executes cells[i], converting a panic into a *CellError so the
// rest of the sweep keeps running.
func runCell[T any](cells []Cell[T], results []T, errs []*CellError, i int) {
	defer func() {
		if r := recover(); r != nil {
			errs[i] = &CellError{Index: i, Label: cells[i].Label,
				Err: &panicError{value: r, stack: debug.Stack()}}
		}
	}()
	v, err := cells[i].Run()
	if err != nil {
		errs[i] = &CellError{Index: i, Label: cells[i].Label, Err: err}
		return
	}
	results[i] = v
}
