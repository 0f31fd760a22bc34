package storage

import (
	"testing"

	"frieda/internal/sim"
)

func testVolumes(n int) []*Volume {
	vols := make([]*Volume, n)
	for i := range vols {
		vols[i] = MustVolume("d", Spec{Class: ClassLocal, ReadBps: 100e6, WriteBps: 100e6, CapacityBytes: 10e9})
	}
	return vols
}

func TestDiskFaultOptionsValidate(t *testing.T) {
	bad := []DiskFaultOptions{
		{DeathMTBFSec: -1},
		{DegradeMTBFSec: -1},
		{DegradeMTBFSec: 10}, // missing MTTR
		{DegradeMTBFSec: 10, DegradeMTTRSec: 5, DegradeFactor: 1.5},
		{ReadErrorRate: -0.1},
		{ReadErrorRate: 1.1},
	}
	for i, o := range bad {
		if o.Validate() == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	good := DiskFaultOptions{Seed: 1, DeathMTBFSec: 100, DegradeMTBFSec: 50, DegradeMTTRSec: 10, DegradeFactor: 0.3, ReadErrorRate: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestDiskFaultInjectorDeaths(t *testing.T) {
	eng := sim.NewEngine()
	vols := testVolumes(2)
	var died []*Volume
	inj := NewDiskFaultInjector(eng, vols, DiskFaultOptions{Seed: 3, DeathMTBFSec: 100}, func(v *Volume) {
		died = append(died, v)
	})
	eng.RunUntil(1000)
	if len(died) == 0 {
		t.Fatal("no deaths over 10×MTBF")
	}
	// A death is one event: the fresh media re-arms without an outage event.
	if fired := int(eng.Fired()); len(died) != fired {
		t.Fatalf("callback count %d != events %d", len(died), fired)
	}
	if vols[0].Wipes == 0 {
		t.Fatal("no death wiped the volume")
	}
	inj.Stop()
}

func TestDiskFaultInjectorDegradeAndErrors(t *testing.T) {
	eng := sim.NewEngine()
	vols := testVolumes(1)
	inj := NewDiskFaultInjector(eng, vols, DiskFaultOptions{
		Seed: 5, DegradeMTBFSec: 50, DegradeMTTRSec: 20, DegradeFactor: 0.25, ReadErrorRate: 0.1,
	}, nil)
	if vols[0].ReadErrorRate() != 0.1 {
		t.Fatal("read-error rate not applied at arm time")
	}
	degrades, restores := 0, 0
	for eng.Step() && eng.Now() <= 1000 {
		if vols[0].degrade < 1 {
			degrades++
		} else {
			restores++
		}
	}
	if degrades == 0 {
		t.Fatal("no degrade episodes over 20×MTBF")
	}
	if restores == 0 || restores > degrades {
		t.Fatalf("restores=%d degrades=%d", restores, degrades)
	}
	inj.Stop()
	if vols[0].ReadErrorRate() != 0 {
		t.Fatal("Stop did not clear read-error rate")
	}
	// After Stop the queue drains: no perpetual re-arming.
	for eng.Step() {
	}
}

func TestDiskFaultInjectorDeterminism(t *testing.T) {
	// Deaths count through the callback; a degrade episode starts where a
	// volume turns slow.
	run := func() (d, g int) {
		eng := sim.NewEngine()
		vols := testVolumes(3)
		inj := NewDiskFaultInjector(eng, vols, DiskFaultOptions{
			Seed: 11, DeathMTBFSec: 200, DegradeMTBFSec: 100, DegradeMTTRSec: 30, DegradeFactor: 0.5,
		}, func(*Volume) { d++ })
		slow := make([]bool, len(vols))
		for eng.Step() && eng.Now() <= 5000 {
			for i, v := range vols {
				if v.degrade < 1 && !slow[i] {
					g++
				}
				slow[i] = v.degrade < 1
			}
		}
		inj.Stop()
		return d, g
	}
	d1, g1 := run()
	d2, g2 := run()
	if d1 != d2 || g1 != g2 {
		t.Fatalf("schedules differ across equal seeds: %d/%d vs %d/%d", d1, g1, d2, g2)
	}
	if d1 == 0 || g1 == 0 {
		t.Fatal("expected some faults in 5000s")
	}
}
