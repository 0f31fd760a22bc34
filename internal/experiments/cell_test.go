package experiments

import (
	"errors"
	"strings"
	"testing"

	"frieda/internal/sim"
	"frieda/internal/simrun"
)

// runCell has one error path of its own — the engine drains with the run
// unfinished — and one obligation on every path: stop is called exactly once
// and its error surfaces unless a deadlock outranks it.
func TestRunCellDeadlockAndStop(t *testing.T) {
	wl := BLASTWorkload(0.002, 1)

	t.Run("finished", func(t *testing.T) {
		stops := 0
		res, err := runCell("cell-ok", NewTestbed(2, 1), realTime(), wl,
			func(*Testbed, *simrun.Runner) func() error {
				return func() error { stops++; return nil }
			})
		if err != nil || res.Succeeded != len(wl.Tasks) {
			t.Fatalf("run: %d/%d tasks, err %v", res.Succeeded, len(wl.Tasks), err)
		}
		if stops != 1 {
			t.Fatalf("stop ran %d times on the finished path, want 1", stops)
		}
	})

	t.Run("stop error surfaces", func(t *testing.T) {
		_, err := runCell("cell-stop-err", NewTestbed(2, 1), realTime(), wl,
			func(*Testbed, *simrun.Runner) func() error {
				return func() error { return errInjected }
			})
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v, want the injector's", err)
		}
	})

	t.Run("deadlocked", func(t *testing.T) {
		// No schedule the simulator can be given deadlocks it: the ledger's
		// stall rule abandons what no live worker can take, and
		// pre-partitioning deals to live workers only. So the injector
		// reaches the deadlock branch from outside: it hands runCell an
		// empty engine to step, while the runner keeps scheduling on its
		// own, and the run never finishes.
		stops := 0
		_, err := runCell("cell-stuck", NewTestbed(2, 1), preRemote(AssignerFor("BLAST")), wl,
			func(tb *Testbed, _ *simrun.Runner) func() error {
				tb.Engine = sim.NewEngine()
				return func() error { stops++; return errInjected }
			})
		if err == nil || !strings.Contains(err.Error(), "cell-stuck deadlocked") {
			t.Fatalf("err = %v, want a deadlock naming the cell", err)
		}
		if stops != 1 {
			t.Fatalf("stop ran %d times on the deadlocked path, want 1", stops)
		}
	})
}

var errInjected = errors.New("injected")
