// Straggler injection: seeded gray-failure schedules that slow targets
// down without killing them. A fail-stop fault is loud — flows die,
// heartbeats stop — but the dominant tail-latency source in real clouds is
// the quiet kind: a worker whose compute rate silently drops to a fraction
// of its provisioned speed. StragglerOptions.Schedule arms per-target
// episodes of such slowness on virtual time; what "slow" means is the
// caller's business (simrun scales compute rates, experiments pair it with
// the degrade modes of the disk and link injectors).
package fault

import (
	"fmt"
	"math/rand"

	"frieda/internal/sim"
)

// StragglerOptions configures a seeded straggler schedule.
type StragglerOptions struct {
	// Seed fixes the episode schedule.
	Seed int64
	// MTBSSec is the mean time between slow episodes per target (exponential).
	MTBSSec float64
	// DurationSec is the mean episode duration (exponential).
	DurationSec float64
	// Severity is the speed factor applied during an episode, in (0, 1):
	// 0.1 means the target runs at a tenth of its provisioned rate.
	Severity float64
}

// Validate checks the options.
func (o StragglerOptions) Validate() error {
	if o.MTBSSec <= 0 {
		return fmt.Errorf("fault: straggler MTBS %v must be positive", o.MTBSSec)
	}
	if o.DurationSec <= 0 {
		return fmt.Errorf("fault: straggler duration %v must be positive", o.DurationSec)
	}
	if o.Severity <= 0 || o.Severity >= 1 {
		return fmt.Errorf("fault: straggler severity %v outside (0, 1)", o.Severity)
	}
	return nil
}

// Schedule arms a slow-episode schedule for each of n targets: onSlow(i,
// factor) runs when target i enters an episode (factor = o.Severity),
// onRecover(i) when it ends, and a target that straggled once will
// straggle again. Panics on invalid options.
func (o StragglerOptions) Schedule(eng *sim.Engine, n int, onSlow func(i int, factor float64), onRecover func(i int)) *sim.Episodes {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	s := sim.NewEpisodes(eng, rand.New(rand.NewSource(o.Seed)), n, func(i int, down bool) float64 {
		if down {
			onSlow(i, o.Severity)
			return o.DurationSec
		}
		onRecover(i)
		return o.MTBSSec
	})
	for i := 0; i < n; i++ {
		s.Arm(i, o.MTBSSec)
	}
	return s
}
