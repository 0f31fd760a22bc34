package netsim

import (
	"fmt"
	"math/rand"

	"frieda/internal/sim"
)

// FaultOptions configures a LinkFaultInjector — the link-level analogue of
// cloud.Options.FailureMTBFSec for whole-VM crashes. Up-times and outage
// durations are exponential draws from a dedicated seeded RNG, so runs with
// equal seeds inject the identical fault schedule.
type FaultOptions struct {
	// Seed drives every draw; equal seeds give identical schedules.
	Seed int64
	// MTBFSec is the mean up-time between faults per link group (> 0).
	MTBFSec float64
	// MTTRSec is the mean outage duration (> 0).
	MTTRSec float64
	// FlapCount, when > 1, turns each outage into a burst of that many
	// short down/up cycles (a flapping carrier) whose total expected
	// downtime is still MTTRSec.
	FlapCount int
	// DegradeFactor, when in (0, 1), degrades links to this fraction of
	// capacity instead of failing them outright: flows crawl rather than
	// die. Zero means full failure.
	DegradeFactor float64
}

// Validate checks the options.
func (o FaultOptions) Validate() error {
	if o.MTBFSec <= 0 {
		return fmt.Errorf("netsim: fault MTBF %v not positive", o.MTBFSec)
	}
	if o.MTTRSec <= 0 {
		return fmt.Errorf("netsim: fault MTTR %v not positive", o.MTTRSec)
	}
	if o.FlapCount < 0 {
		return fmt.Errorf("netsim: negative flap count %d", o.FlapCount)
	}
	if o.DegradeFactor != 0 && (o.DegradeFactor < 0 || o.DegradeFactor >= 1) {
		return fmt.Errorf("netsim: degrade factor %v outside (0,1)", o.DegradeFactor)
	}
	return nil
}

// LinkFaultInjector injects seeded link faults on virtual time. Links are
// organised into groups that fail and recover together — a VM's uplink and
// downlink form one group, so a group fault is a network partition of that
// VM rather than a half-open link.
type LinkFaultInjector struct {
	net    *Network
	opts   FaultOptions
	groups [][]*Link
	left   []int // flap cycles left in each group's current burst
	sched  *sim.Episodes
}

// NewLinkFaultInjector arms one fault schedule per link group on the
// network's engine. It panics on invalid options (fault plans are built
// once at experiment setup, like NewLink).
func NewLinkFaultInjector(net *Network, groups [][]*Link, opts FaultOptions) *LinkFaultInjector {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	if opts.FlapCount < 1 {
		opts.FlapCount = 1
	}
	inj := &LinkFaultInjector{net: net, opts: opts, groups: groups, left: make([]int, len(groups))}
	inj.sched = sim.NewEpisodes(net.eng, rand.New(rand.NewSource(opts.Seed)), len(groups), inj.edge)
	for gi := range groups {
		inj.left[gi] = opts.FlapCount
		inj.sched.Arm(gi, opts.MTBFSec)
	}
	return inj
}

// Stop disarms the injector: no further faults or restores fire, and its
// pending events leave the queue so an idle engine can drain. Links
// currently down stay down; restore them explicitly if needed.
func (inj *LinkFaultInjector) Stop() { inj.sched.Stop() }

// edge takes group gi offline (or degrades it) or repairs it. A repair
// starts either the next flap cycle of the burst (a short intra-burst
// up-time) or, once the burst is spent, a full MTBF of up-time.
func (inj *LinkFaultInjector) edge(gi int, down bool) float64 {
	burst := inj.opts.MTTRSec / float64(inj.opts.FlapCount)
	for _, l := range inj.groups[gi] {
		switch {
		case !down:
			inj.net.RestoreLink(l)
		case inj.opts.DegradeFactor > 0:
			inj.net.DegradeLink(l, inj.opts.DegradeFactor)
		default:
			inj.net.FailLink(l)
		}
	}
	if down {
		return burst
	}
	if inj.left[gi]--; inj.left[gi] > 0 {
		return burst
	}
	inj.left[gi] = inj.opts.FlapCount
	return inj.opts.MTBFSec
}
