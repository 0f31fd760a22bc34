package fault

import (
	"testing"

	"frieda/internal/sim"
)

func TestStragglerInjectorCycles(t *testing.T) {
	eng := sim.NewEngine()
	var slows, recovers []int
	inj := StragglerOptions{
		Seed: 1, MTBSSec: 100, DurationSec: 20, Severity: 0.1,
	}.Schedule(eng, 2, func(i int, factor float64) {
		if factor != 0.1 {
			t.Fatalf("factor = %v, want severity 0.1", factor)
		}
		slows = append(slows, i)
	}, func(i int) {
		recovers = append(recovers, i)
	})
	eng.RunUntil(2000)
	if len(slows) == 0 {
		t.Fatal("no episodes over 20x MTBS")
	}
	// Episodes re-arm: each target keeps cycling, so recoveries trail
	// episodes by at most the number of targets.
	if len(slows)-len(recovers) > 2 || len(slows) < len(recovers) {
		t.Fatalf("episodes %d vs recoveries %d", len(slows), len(recovers))
	}
	inj.Stop()
}

func TestStragglerInjectorDeterministic(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.NewEngine()
		var at []sim.Time
		inj := StragglerOptions{
			Seed: 7, MTBSSec: 50, DurationSec: 10, Severity: 0.05,
		}.Schedule(eng, 3, func(int, float64) { at = append(at, eng.Now()) }, func(int) {})
		eng.RunUntil(500)
		inj.Stop()
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("episode counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("episode %d at %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStragglerInjectorStopFreezes(t *testing.T) {
	eng := sim.NewEngine()
	edges := 0
	inj := StragglerOptions{
		Seed: 3, MTBSSec: 10, DurationSec: 5, Severity: 0.2,
	}.Schedule(eng, 1, func(int, float64) { edges++ }, func(int) { edges++ })
	eng.RunUntil(100)
	inj.Stop()
	before := edges
	eng.RunUntil(10_000)
	if edges != before || eng.Pending() != 0 {
		t.Fatal("injector kept firing after Stop")
	}
}

func TestStragglerOptionsValidate(t *testing.T) {
	bad := []StragglerOptions{
		{MTBSSec: 0, DurationSec: 1, Severity: 0.5},
		{MTBSSec: 1, DurationSec: 0, Severity: 0.5},
		{MTBSSec: 1, DurationSec: 1, Severity: 0},
		{MTBSSec: 1, DurationSec: 1, Severity: 1},
	}
	for _, o := range bad {
		if o.Validate() == nil {
			t.Errorf("Validate(%+v) passed", o)
		}
	}
	if err := (StragglerOptions{MTBSSec: 1, DurationSec: 1, Severity: 0.5}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// adaptiveDetector builds a 3-worker detector with adaptive detection on and
// every node beating regularly (so φ stays calm unless a test silences one).
func adaptiveDetector(t *testing.T) (*sim.Engine, *Detector) {
	t.Helper()
	eng := sim.NewEngine()
	d := NewDetectorK(eng, 1000, 1, func(string) {})
	for _, n := range []string{"w0", "w1", "w2"} {
		d.Watch(n)
	}
	d.EnableAdaptive()
	return eng, d
}

func TestAdaptiveSlowSuspectViaWatermarks(t *testing.T) {
	_, d := adaptiveDetector(t)
	var suspected, cleared []string
	d.OnSlowSuspect(func(n string) { suspected = append(suspected, n) })
	d.OnSlowClear(func(n string) { cleared = append(cleared, n) })

	// Two reporters are not enough for a peer median: no suspicion forms.
	d.ReportProgress("w0", 0.01)
	d.ReportProgress("w1", 1)
	for i := 0; i < 5; i++ {
		d.ReportProgress("w0", 0.01)
	}
	if d.SlowSuspected("w0") {
		t.Fatal("suspicion without 3 reporters")
	}

	// Third reporter arrives: w0 is far below the peer median, but one slow
	// report must not trigger — minSlowReports (3) consecutive ones must.
	d.ReportProgress("w2", 1)
	d.ReportProgress("w0", 0.01)
	d.ReportProgress("w0", 0.01)
	if d.SlowSuspected("w0") {
		t.Fatal("suspected before minSlowReports consecutive slow reports")
	}
	d.ReportProgress("w0", 0.01)
	if !d.SlowSuspected("w0") || len(suspected) != 1 || suspected[0] != "w0" {
		t.Fatalf("w0 not slow-suspected: %v", suspected)
	}
	if got := stateOf(d, "w0"); got != SlowSuspect {
		t.Fatalf("State(w0) = %v", got)
	}
	if got := d.SlowSuspects(); len(got) != 1 || got[0] != "w0" {
		t.Fatalf("SlowSuspects() = %v", got)
	}

	// A healthy report clears the suspicion and resets the accrual run.
	d.ReportProgress("w0", 1)
	if d.SlowSuspected("w0") || len(cleared) != 1 || cleared[0] != "w0" {
		t.Fatalf("suspicion not cleared: %v", cleared)
	}
	d.ReportProgress("w0", 0.01)
	d.ReportProgress("w0", 0.01)
	if d.SlowSuspected("w0") {
		t.Fatal("slow-run counter survived a healthy report")
	}
}

func TestAdaptivePhiGrowsWithSilence(t *testing.T) {
	eng, d := adaptiveDetector(t)
	for i := 1; i <= 6; i++ {
		at := sim.Time(i * 10)
		eng.Schedule(at-eng.Now(), func() { d.Heartbeat("w0") })
		eng.RunUntil(at)
	}
	if phi := d.Phi("w0"); phi > 0.5 {
		t.Fatalf("fresh beat: φ = %v", phi)
	}
	// Silence of 5 mean interarrivals: φ = 5·log10(e) ≈ 2.17. Probe from a
	// scheduled event — the engine clock only advances while events fire.
	var phi float64
	eng.Schedule(50, func() { phi = d.Phi("w0") })
	eng.RunUntil(110)
	if phi < 2 || phi > 2.4 {
		t.Fatalf("after 50 s silence over 10 s mean: φ = %v", phi)
	}
	if d.Phi("never-beat") != 0 {
		t.Fatal("unknown node has nonzero φ")
	}
}

func TestAdaptivePhiAloneSuspects(t *testing.T) {
	eng, d := adaptiveDetector(t)
	// Steady beats at 10 s, then silence; rates are all equal so the
	// watermark channel stays quiet and φ is the only signal.
	for i := 1; i <= 6; i++ {
		at := sim.Time(i * 10)
		eng.Schedule(at-eng.Now(), func() { d.Heartbeat("w0") })
		eng.RunUntil(at)
	}
	for _, n := range []string{"w0", "w1", "w2"} {
		d.ReportProgress(n, 1)
	}
	eng.Schedule(60, func() { // now = 120: φ(w0) ≈ 2.6 > 2.0
		for i := 0; i < 3; i++ {
			d.ReportProgress("w0", 1)
		}
	})
	eng.RunUntil(120)
	if !d.SlowSuspected("w0") {
		t.Fatalf("φ = %v did not accrue suspicion", d.Phi("w0"))
	}
}

func TestAdaptiveDropOnDeclare(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDetectorK(eng, 10, 1, func(string) {})
	for _, n := range []string{"w0", "w1", "w2"} {
		d.Watch(n)
	}
	d.EnableAdaptive()
	d.ReportProgress("w1", 1)
	d.ReportProgress("w2", 1)
	for i := 0; i < minSlowReports; i++ {
		d.ReportProgress("w0", 0.01)
	}
	if !d.SlowSuspected("w0") {
		t.Fatal("setup: w0 not suspected")
	}
	// w0 goes fully silent and is declared dead: the slow suspicion must
	// not linger, and late reports for it are ignored.
	eng.Schedule(5, func() { d.Heartbeat("w1") })
	eng.Schedule(5, func() { d.Heartbeat("w2") })
	eng.RunUntil(50)
	if !d.declared["w0"] {
		t.Fatal("setup: w0 not declared")
	}
	if d.SlowSuspected("w0") || len(d.SlowSuspects()) != 0 {
		t.Fatal("declared node still slow-suspected")
	}
	d.ReportProgress("w0", 0.01)
	if d.SlowSuspected("w0") {
		t.Fatal("report resurrected a declared node")
	}
}

func TestAdaptiveOffByDefault(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDetectorK(eng, 10, 1, func(string) {})
	d.Watch("w0")
	d.ReportProgress("w0", 0.0001)
	d.ReportProgress("w0", 0.0001)
	d.ReportProgress("w0", 0.0001)
	if d.SlowSuspected("w0") || d.Phi("w0") != 0 || d.SlowSuspects() != nil {
		t.Fatal("adaptive machinery active without EnableAdaptive")
	}
}

func TestSlowSuspectStateString(t *testing.T) {
	if got := SlowSuspect.String(); got != "slow" {
		t.Fatalf("SlowSuspect.String() = %q", got)
	}
}
