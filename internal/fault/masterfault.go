// Master fault injection: seeded crash/restart episodes against the
// control plane itself. Worker, disk, link and straggler injectors all
// assume an immortal master; MasterFaultOptions.Schedule removes that
// assumption. It only drives the episode schedule — what a crash *means*
// (pausing dispatch, journal replay on restart, amnesia) is the caller's
// business (internal/simrun implements the outage semantics).
package fault

import (
	"fmt"
	"math/rand"

	"frieda/internal/sim"
)

// MasterFaultOptions configures a seeded master crash schedule.
type MasterFaultOptions struct {
	// Seed fixes the episode schedule.
	Seed int64
	// MTBFSec is the mean up-time between crashes (exponential).
	MTBFSec float64
	// MTTRSec is the mean outage duration before the master process
	// restarts (exponential).
	MTTRSec float64
}

// Validate checks the options.
func (o MasterFaultOptions) Validate() error {
	if o.MTBFSec <= 0 {
		return fmt.Errorf("fault: master MTBF %v must be positive", o.MTBFSec)
	}
	if o.MTTRSec <= 0 {
		return fmt.Errorf("fault: master MTTR %v must be positive", o.MTTRSec)
	}
	return nil
}

// Schedule arms a crash schedule for the single control-plane process; the
// first crash is one exponential MTBF draw from now. onCrash runs when the
// master process dies, onRestart when the replacement comes up (recovery
// replay cost, if any, is modelled by the caller after onRestart), and a
// control plane that crashed once will crash again. Panics on invalid
// options.
func (o MasterFaultOptions) Schedule(eng *sim.Engine, onCrash, onRestart func()) *sim.Episodes {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	s := sim.NewEpisodes(eng, rand.New(rand.NewSource(o.Seed)), 1, func(_ int, down bool) float64 {
		if down {
			onCrash()
			return o.MTTRSec
		}
		onRestart()
		return o.MTBFSec
	})
	s.Arm(0, o.MTBFSec)
	return s
}
