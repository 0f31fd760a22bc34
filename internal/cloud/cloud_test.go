package cloud

import (
	"testing"
	"testing/quick"

	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/storage"
)

func TestC1XLargeMatchesPaper(t *testing.T) {
	if C1XLarge.Cores != 4 {
		t.Fatalf("cores = %d, want 4", C1XLarge.Cores)
	}
	if C1XLarge.MemBytes != 4e9 {
		t.Fatalf("mem = %v, want 4 GB", C1XLarge.MemBytes)
	}
	if C1XLarge.UpBps != netsim.Mbps(100) || C1XLarge.DownBps != netsim.Mbps(100) {
		t.Fatal("provisioned bandwidth must be 100 Mbps as in the paper")
	}
	if err := C1XLarge.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceTypeValidate(t *testing.T) {
	bad := C1XLarge
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Fatal("zero cores accepted")
	}
	bad = C1XLarge
	bad.UpBps = 0
	if bad.Validate() == nil {
		t.Fatal("zero uplink accepted")
	}
	bad = C1XLarge
	bad.BootMaxSec = bad.BootMinSec - 1
	if bad.Validate() == nil {
		t.Fatal("inverted boot window accepted")
	}
}

func TestProvisionBootsAsync(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{Seed: 1})
	vms, err := c.Provision(3, C1XLarge)
	if err != nil {
		t.Fatal(err)
	}
	booted := bootTimes(c, vms)
	for _, vm := range vms {
		if vm.state != StateProvisioning {
			t.Fatalf("state before boot = %v", vm.state)
		}
	}
	eng.Run()
	// Callbacks registered after Provision still catch the boots because
	// boots are events; all must now be running.
	for i, vm := range vms {
		if !vm.Running() {
			t.Fatalf("%s not running", vm.Name())
		}
		b := float64(booted[i])
		if b < C1XLarge.BootMinSec || b > C1XLarge.BootMaxSec {
			t.Fatalf("%s booted at %v outside [%v,%v]", vm.Name(), b, C1XLarge.BootMinSec, C1XLarge.BootMaxSec)
		}
	}
}

// bootTimes records, in the returned slice, the virtual time at which each
// VM comes up (-1 until it does).
func bootTimes(c *Cluster, vms []*VM) []sim.Time {
	at := make([]sim.Time, len(vms))
	for i, vm := range vms {
		at[i] = -1
		c.OnReadyOnce(vm, func() { at[i] = c.Engine().Now() })
	}
	return at
}

func TestInstantBoot(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{Seed: 1, InstantBoot: true})
	vms, _ := c.Provision(2, C1XLarge)
	booted := bootTimes(c, vms)
	eng.RunUntil(0)
	for i, vm := range vms {
		if !vm.Running() || booted[i] != 0 {
			t.Fatalf("%s: state=%v booted at %v", vm.Name(), vm.state, booted[i])
		}
	}
}

func TestDeterministicBootTimes(t *testing.T) {
	boot := func(seed int64) []sim.Time {
		eng := sim.NewEngine()
		c := New(eng, Options{Seed: seed})
		vms, _ := c.Provision(5, C1XLarge)
		out := bootTimes(c, vms)
		eng.Run()
		return out
	}
	a, b := boot(42), boot(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := boot(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical boot times")
	}
}

func TestFailureInjection(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{Seed: 7, InstantBoot: true, FailureMTBFSec: 100})
	vms, _ := c.Provision(4, C1XLarge)
	failures := 0
	c.OnFailure(func(vm *VM) {
		failures++
		if vm.state != StateFailed {
			t.Fatalf("failed VM in state %v", vm.state)
		}
		if eng.Now() <= 0 {
			t.Fatalf("%s failed at %v, before its boot had run", vm.Name(), eng.Now())
		}
	})
	eng.RunUntil(10000)
	if failures != 4 {
		t.Fatalf("failures = %d, want all 4 within 100×MTBF", failures)
	}
	for _, vm := range vms {
		if vm.Running() {
			t.Fatalf("%s still running", vm.Name())
		}
	}
}

func TestScriptedFail(t *testing.T) {
	eng := sim.NewEngine()
	c, vms := Default4VMCluster(eng, 1)
	var failedAt sim.Time
	c.OnFailure(func(vm *VM) { failedAt = eng.Now() })
	eng.Schedule(50, func() { c.Fail(vms[2]) })
	eng.Run()
	if failedAt != 50 {
		t.Fatalf("failure at %v, want 50", failedAt)
	}
	running := 0
	for _, vm := range vms {
		if vm.Running() {
			running++
		}
	}
	if running != 3 {
		t.Fatalf("running VMs = %d, want 3", running)
	}
	// Failing again is a no-op.
	c.Fail(vms[2])
}

// finishTime owns a test transfer's flow and records when it finished.
type finishTime struct {
	eng *sim.Engine
	at  sim.Time
}

func (f *finishTime) FlowDone(*netsim.Flow)                 { f.at = f.eng.Now() }
func (f *finishTime) FlowInterrupted(*netsim.Flow, float64) {}

func TestVMTransfer(t *testing.T) {
	eng := sim.NewEngine()
	c, vms := Default4VMCluster(eng, 1)
	done := &finishTime{eng: eng}
	// 12.5 MB at 100 Mbps = 1 s on the dedicated pair.
	c.Transfer(vms[0], vms[1], 12.5e6, done)
	eng.Run()
	if d := float64(done.at); d < 0.999 || d > 1.001 {
		t.Fatalf("transfer took %v, want ~1 s", d)
	}
}

func TestProvisionRejectsBadArgs(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	if _, err := c.Provision(0, C1XLarge); err == nil {
		t.Fatal("zero VMs accepted")
	}
	bad := C1XLarge
	bad.Cores = 0
	if _, err := c.Provision(1, bad); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestVMStateString(t *testing.T) {
	for s, want := range map[VMState]string{
		StateProvisioning: "provisioning",
		StateRunning:      "running",
		StateFailed:       "failed",
		VMState(9):        "VMState(9)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: with MTBF failures enabled, every VM that booted eventually has
// exactly one failure, and failure times are strictly after boot times.
func TestFailureAfterBootProperty(t *testing.T) {
	prop := func(seed int64) bool {
		eng := sim.NewEngine()
		c := New(eng, Options{Seed: seed, FailureMTBFSec: 50})
		vms, _ := c.Provision(3, C1XLarge)
		booted := bootTimes(c, vms)
		died := make(map[*VM]sim.Time)
		c.OnFailure(func(vm *VM) { died[vm] = eng.Now() })
		eng.RunUntil(1e6)
		if len(died) != 3 {
			return false
		}
		for i, vm := range vms {
			if died[vm] <= booted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOnReadyOnce(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{Seed: 1})
	vms, _ := c.Provision(1, C1XLarge)
	fired := 0
	c.OnReadyOnce(vms[0], func() { fired++ })
	eng.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// Already-running VM: immediate.
	immediate := 0
	c.OnReadyOnce(vms[0], func() { immediate++ })
	if immediate != 1 {
		t.Fatalf("immediate = %d", immediate)
	}
	// A later VM booting must not re-fire the first hook.
	c.Provision(1, C1XLarge)
	eng.Run()
	if fired != 1 {
		t.Fatalf("hook re-fired: %d", fired)
	}
}

// One-shot ready callbacks wait on their VM, not on the cluster: 1,000 of
// them on distinct booting VMs each fire once, at their own VM's boot, and
// none is kept anywhere afterwards. A cluster-wide list would keep all 1,000
// and have every later boot walk them.
func TestOnReadyOnceForgets(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{Seed: 3})
	vms, err := c.Provision(1000, C1XLarge)
	if err != nil {
		t.Fatal(err)
	}
	fired := make([]int, len(vms))
	for i, vm := range vms {
		c.OnReadyOnce(vm, func() {
			if !vm.Running() {
				t.Errorf("%s: one-shot ran at %v, state %v", vm.Name(), eng.Now(), vm.state)
			}
			fired[i]++
		})
	}
	eng.Run()
	for i, n := range fired {
		if n != 1 {
			t.Fatalf("%s: one-shot fired %d times, want 1", vms[i].Name(), n)
		}
	}
	for _, vm := range vms {
		if vm.readyOnce != nil {
			t.Fatalf("%s keeps %d one-shots after its boot", vm.Name(), len(vm.readyOnce))
		}
	}
}

func TestSiteAwarePaths(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{Seed: 1, InstantBoot: true, FabricBps: netsim.Mbps(10)})
	vms, _ := c.Provision(3, C1XLarge)
	eng.RunUntil(eng.Now())
	a, b, far := vms[0], vms[1], vms[2]
	c.SetSite(a, 1)
	c.SetSite(b, 1)
	c.SetSite(far, 2)
	if a.site != 1 || far.site != 2 {
		t.Fatal("Site not recorded")
	}
	// Same non-zero site: two links (no fabric).
	if got := len(c.AppendTransferPath(nil, a, b)); got != 2 {
		t.Fatalf("intra-site path length = %d, want 2", got)
	}
	// Cross-site: three links including the fabric.
	if got := len(c.AppendTransferPath(nil, a, far)); got != 3 {
		t.Fatalf("cross-site path length = %d, want 3", got)
	}
	// Default site 0 keeps the fabric (oversubscribed-core semantics).
	d := New(eng, Options{Seed: 2, InstantBoot: true, FabricBps: netsim.Mbps(10)})
	dv, _ := d.Provision(2, C1XLarge)
	eng.RunUntil(eng.Now())
	if got := len(d.AppendTransferPath(nil, dv[0], dv[1])); got != 3 {
		t.Fatalf("site-0 path length = %d, want 3 (fabric included)", got)
	}
}

func TestIntraSiteBypassSpeeds(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{Seed: 1, InstantBoot: true, FabricBps: netsim.Mbps(10)})
	vms, _ := c.Provision(2, C1XLarge)
	eng.RunUntil(eng.Now())
	c.SetSite(vms[0], 1)
	c.SetSite(vms[1], 1)
	done := &finishTime{eng: eng}
	// 12.5 MB at the NIC's 100 Mbps (fabric bypassed) = 1 s; through the
	// 10 Mbps fabric it would take 10 s.
	c.Transfer(vms[0], vms[1], 12.5e6, done)
	eng.Run()
	if d := float64(done.at); d < 0.99 || d > 1.01 {
		t.Fatalf("intra-site transfer took %v, want ~1 s", d)
	}
}

func TestFailDisk(t *testing.T) {
	eng := sim.NewEngine()
	c, vms := Default4VMCluster(eng, 1)
	var gotVM *VM
	var gotVol *storage.Volume
	c.OnDiskFailure(func(vm *VM, v *storage.Volume) { gotVM, gotVol = vm, v })
	c.FailDisk(vms[1])
	if gotVM != vms[1] || gotVol != vms[1].LocalDisk() {
		t.Fatal("disk-failure callback missed or wrong target")
	}
	if vms[1].LocalDisk().Wipes != 1 {
		t.Fatal("FailDisk did not wipe the volume")
	}
	if !vms[1].Running() {
		t.Fatal("disk death must not kill the VM")
	}
	// A dead VM's disk cannot fail again.
	c.Fail(vms[1])
	gotVM = nil
	c.FailDisk(vms[1])
	if gotVM != nil {
		t.Fatal("FailDisk fired on a dead VM")
	}
}

func TestInjectDiskFaults(t *testing.T) {
	eng := sim.NewEngine()
	c, vms := Default4VMCluster(eng, 1)
	deaths := map[string]int{}
	c.OnDiskFailure(func(vm *VM, _ *storage.Volume) { deaths[vm.Name()]++ })
	// vm-3 dies early: its later disk deaths must be swallowed.
	eng.Schedule(10, func() { c.Fail(vms[3]) })
	inj := c.InjectDiskFaults(vms[1:], storage.DiskFaultOptions{Seed: 9, DeathMTBFSec: 100})
	eng.RunUntil(2000)
	inj.Stop()
	if vms[1].LocalDisk().Wipes+vms[2].LocalDisk().Wipes+vms[3].LocalDisk().Wipes == 0 {
		t.Fatal("no disk deaths over 20×MTBF")
	}
	if deaths["vm-3"] != 0 {
		t.Fatalf("dead VM received %d disk-failure callbacks", deaths["vm-3"])
	}
	if deaths["vm-1"]+deaths["vm-2"] == 0 {
		t.Fatal("no callbacks for live VMs")
	}
	if deaths["vm-0"] != 0 {
		t.Fatal("uninjected VM received a disk fault")
	}
	for eng.Step() {
	}
}
