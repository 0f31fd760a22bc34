// Master fault injection: seeded crash/restart episodes against the
// control plane itself. Worker, disk, link and straggler injectors all
// assume an immortal master; MasterFaultInjector removes that assumption.
// It only drives the episode schedule — what a crash *means* (pausing
// dispatch, journal replay on restart, amnesia) is the caller's business
// (internal/simrun implements the outage semantics).
package fault

import (
	"fmt"
	"math"
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

// MasterFaultInjector drives crash→outage→restart episodes for the single
// control-plane process on virtual time. onCrash runs when the master
// process dies; onRestart when the replacement process comes up (recovery
// replay cost, if any, is modelled by the caller after onRestart).
type MasterFaultInjector struct {
	eng  *sim.Engine
	opts MasterFaultOptions
	rng  *rand.Rand

	onCrash   func()
	onRestart func()

	pend    sim.EventRef
	stopped bool

	crashes  int
	restarts int
}

// NewMasterFaultInjector arms a crash schedule; the first crash is one
// exponential MTBF draw from now. Panics on invalid options.
func NewMasterFaultInjector(eng *sim.Engine, opts MasterFaultOptions, onCrash, onRestart func()) *MasterFaultInjector {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	inj := &MasterFaultInjector{
		eng:       eng,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		onCrash:   onCrash,
		onRestart: onRestart,
	}
	inj.arm()
	return inj
}

// expDraw samples an exponential with the given mean.
func (inj *MasterFaultInjector) expDraw(mean float64) sim.Duration {
	u := inj.rng.Float64()
	for u == 0 {
		u = inj.rng.Float64()
	}
	return sim.Duration(-mean * math.Log(u))
}

func (inj *MasterFaultInjector) arm() {
	inj.pend = inj.eng.Schedule(inj.expDraw(inj.opts.MTBFSec), inj.crash)
}

// crash starts an outage and schedules the restart.
func (inj *MasterFaultInjector) crash() {
	if inj.stopped {
		return
	}
	inj.crashes++
	if inj.onCrash != nil {
		inj.onCrash()
	}
	inj.pend = inj.eng.Schedule(inj.expDraw(inj.opts.MTTRSec), inj.restart)
}

// restart ends the outage and re-arms: a control plane that crashed once
// will crash again.
func (inj *MasterFaultInjector) restart() {
	if inj.stopped {
		return
	}
	inj.restarts++
	if inj.onRestart != nil {
		inj.onRestart()
	}
	inj.arm()
}

// Stop cancels the pending episode event so the engine can drain. A master
// currently mid-outage stays down; callers own the cleanup.
func (inj *MasterFaultInjector) Stop() {
	inj.stopped = true
	inj.pend.Cancel()
}

// Crashes returns how many crash episodes have started.
func (inj *MasterFaultInjector) Crashes() int { return inj.crashes }

// Restarts returns how many restarts have completed.
func (inj *MasterFaultInjector) Restarts() int { return inj.restarts }
