package exprun

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func squares(n int) []Cell[int] {
	cells := make([]Cell[int], n)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{
			Label: fmt.Sprintf("cell=%d", i),
			Run:   func() (int, error) { return i * i, nil },
		}
	}
	return cells
}

func TestRunSequential(t *testing.T) {
	got, err := Run(New(1), squares(10))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

// Results must land in cell order even when late cells finish first.
func TestRunOrderedUnderAdversarialDelays(t *testing.T) {
	const n = 32
	cells := make([]Cell[int], n)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{
			Label: fmt.Sprintf("cell=%d", i),
			Run: func() (int, error) {
				// Earlier cells sleep longer, so completion order is
				// roughly the reverse of submission order.
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i, nil
			},
		}
	}
	got, err := Run(New(8), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("slot %d = %d; parallel collection out of order: %v", i, v, got)
		}
	}
}

// Property: pool width never changes the result slice.
func TestRunPoolSizeEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, n uint8, width uint8) bool {
		count := int(n%20) + 1
		workers := int(width%8) + 1
		mk := func() []Cell[float64] {
			cells := make([]Cell[float64], count)
			for i := range cells {
				i := i
				cells[i] = Cell[float64]{
					Label: fmt.Sprintf("seed=%d/cell=%d", seed, i),
					Run: func() (float64, error) {
						rng := rand.New(rand.NewSource(seed + int64(i)))
						sum := 0.0
						for j := 0; j < 100; j++ {
							sum += rng.Float64()
						}
						return sum, nil
					},
				}
			}
			return cells
		}
		seqRes, err1 := Run(New(1), mk())
		parRes, err2 := Run(New(workers), mk())
		return err1 == nil && err2 == nil && reflect.DeepEqual(seqRes, parRes)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCapturesPanicsWithCoordinates(t *testing.T) {
	cells := squares(6)
	cells[2].Run = func() (int, error) { panic("boom") }
	cells[4].Run = func() (int, error) { return 0, errors.New("plain failure") }
	got, err := Run(New(4), cells)
	if err == nil {
		t.Fatal("no error despite panicking cell")
	}
	var sweep *SweepError
	if !errors.As(err, &sweep) {
		t.Fatalf("error type %T, want *SweepError", err)
	}
	if sweep.Total != 6 || len(sweep.Cells) != 2 {
		t.Fatalf("sweep = %d/%d failed, want 2/6", len(sweep.Cells), sweep.Total)
	}
	if sweep.Cells[0].Index != 2 || sweep.Cells[0].Label != "cell=2" {
		t.Fatalf("first failure = %d (%s), want 2 (cell=2)", sweep.Cells[0].Index, sweep.Cells[0].Label)
	}
	if !strings.Contains(sweep.Cells[0].Err.Error(), "boom") {
		t.Fatalf("panic message lost: %v", sweep.Cells[0].Err)
	}
	if sweep.Cells[1].Index != 4 {
		t.Fatalf("second failure index = %d, want 4", sweep.Cells[1].Index)
	}
	// Surviving cells still produced results; failed slots are zero.
	for i, v := range got {
		switch i {
		case 2, 4:
			if v != 0 {
				t.Fatalf("failed slot %d = %d, want 0", i, v)
			}
		default:
			if v != i*i {
				t.Fatalf("surviving slot %d = %d, want %d", i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if got, err := Run(New(8), []Cell[int]{}); err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: got %v, err %v", got, err)
	}
	got, err := Run(New(8), squares(1))
	if err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf("single cell: got %v, err %v", got, err)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if w := New(0).workers; w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).workers = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(-3).workers; w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).workers = %d, want GOMAXPROCS", w)
	}
	if w := New(5).workers; w != 5 {
		t.Fatalf("New(5).workers = %d, want 5", w)
	}
}

// Two sweeps sharing one pool must not interfere; run with -race this
// doubles as the orchestrator's data-race check.
func TestConcurrentSweepsShareOnePool(t *testing.T) {
	p := New(4)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Run(p, squares(50))
			if err != nil {
				t.Errorf("sweep %d: %v", s, err)
				return
			}
			for i, v := range got {
				if v != i*i {
					t.Errorf("sweep %d slot %d = %d", s, i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
