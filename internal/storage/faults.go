package storage

import (
	"fmt"
	"math/rand"

	"frieda/internal/sim"
)

// DiskFaultOptions configures a DiskFaultInjector — the media-level
// analogue of netsim.FaultOptions for links and cloud.Options.FailureMTBFSec
// for whole VMs. All draws come from one dedicated seeded RNG, so runs with
// equal seeds inject the identical disk-fault schedule.
type DiskFaultOptions struct {
	// Seed drives every draw; equal seeds give identical schedules.
	Seed int64
	// DeathMTBFSec is the mean up-time between volume deaths (wipe + fresh
	// media). Zero disables deaths.
	DeathMTBFSec float64
	// DegradeMTBFSec is the mean time between slow-disk episodes. Zero
	// disables degrades.
	DegradeMTBFSec float64
	// DegradeMTTRSec is the mean duration of a slow-disk episode.
	DegradeMTTRSec float64
	// DegradeFactor is the bandwidth fraction during an episode, in (0,1).
	DegradeFactor float64
	// ReadErrorRate is a constant per-read probability of returning bad
	// data, set on every volume for the injector's lifetime. Callers draw
	// against Volume.ReadErrorRate with their own seeded RNG.
	ReadErrorRate float64
}

// Validate checks the options.
func (o DiskFaultOptions) Validate() error {
	if o.DeathMTBFSec < 0 {
		return fmt.Errorf("storage: negative death MTBF %v", o.DeathMTBFSec)
	}
	if o.DegradeMTBFSec < 0 {
		return fmt.Errorf("storage: negative degrade MTBF %v", o.DegradeMTBFSec)
	}
	if o.DegradeMTBFSec > 0 {
		if o.DegradeMTTRSec <= 0 {
			return fmt.Errorf("storage: degrade MTTR %v not positive", o.DegradeMTTRSec)
		}
		if o.DegradeFactor <= 0 || o.DegradeFactor >= 1 {
			return fmt.Errorf("storage: degrade factor %v outside (0,1)", o.DegradeFactor)
		}
	}
	if o.ReadErrorRate < 0 || o.ReadErrorRate > 1 {
		return fmt.Errorf("storage: read-error rate %v outside [0,1]", o.ReadErrorRate)
	}
	return nil
}

// DiskFaultInjector injects seeded media faults on virtual time: volume
// deaths (instant wipe — the replacement volume is fresh media under the
// same name), slow-disk degrade episodes, and a constant read-error rate.
// It mirrors netsim.LinkFaultInjector so disk chaos composes with link and
// VM chaos under one determinism discipline. Deaths and degrades are two
// schedules drawing from one seeded RNG.
type DiskFaultInjector struct {
	opts     DiskFaultOptions
	vols     []*Volume
	onDeath  func(*Volume)
	deaths   *sim.Episodes
	degrades *sim.Episodes
}

// NewDiskFaultInjector arms death and degrade schedules for each volume on
// the engine and applies the read-error rate immediately. onDeath (may be
// nil) fires after each wipe so the owner can invalidate cached contents.
// It panics on invalid options, like the other injectors: fault plans are
// built once at experiment setup.
func NewDiskFaultInjector(eng *sim.Engine, vols []*Volume, opts DiskFaultOptions, onDeath func(*Volume)) *DiskFaultInjector {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	inj := &DiskFaultInjector{opts: opts, vols: vols, onDeath: onDeath}
	inj.deaths = sim.NewEpisodes(eng, rng, len(vols), inj.die)
	inj.degrades = sim.NewEpisodes(eng, rng, len(vols), inj.slow)
	for i, v := range vols {
		v.SetReadErrors(opts.ReadErrorRate)
		if opts.DeathMTBFSec > 0 {
			inj.deaths.Arm(i, opts.DeathMTBFSec)
		}
		if opts.DegradeMTBFSec > 0 {
			inj.degrades.Arm(i, opts.DegradeMTBFSec)
		}
	}
	return inj
}

// Stop disarms the injector: pending events leave the queue so an idle
// engine can drain, and read-error rates are cleared. Volumes currently
// degraded stay degraded; restore them explicitly if needed.
func (inj *DiskFaultInjector) Stop() {
	inj.deaths.Stop()
	inj.degrades.Stop()
	for _, v := range inj.vols {
		v.SetReadErrors(0)
	}
}

// die wipes volume i. A death is instant, so its outage mean is 0: the
// fresh media under the same name is as mortal as the old.
func (inj *DiskFaultInjector) die(i int, down bool) float64 {
	if !down {
		return inj.opts.DeathMTBFSec
	}
	v := inj.vols[i]
	v.Wipe()
	if inj.onDeath != nil {
		inj.onDeath(v)
	}
	return 0
}

// slow starts or ends a degrade episode of volume i.
func (inj *DiskFaultInjector) slow(i int, down bool) float64 {
	if !down {
		inj.vols[i].Restore()
		return inj.opts.DegradeMTBFSec
	}
	inj.vols[i].Degrade(inj.opts.DegradeFactor)
	return inj.opts.DegradeMTTRSec
}
