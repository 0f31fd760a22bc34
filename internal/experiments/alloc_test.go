package experiments

import (
	"testing"

	"frieda/internal/cloud"
	"frieda/internal/sim"
	"frieda/internal/simrun"
)

// The paper's sweep allocates about one record per fired event: a Flow and
// a stage-in per flow, a task attempt per attempt, and no closure, with the
// workload built from one file array and one name string. One Fig. 6
// real-time cell of each application, workload build included as every
// sweep cell builds its own, measures 1.1415 mallocs per fired event for
// ALS (2,146 per run over 1,880 events) and 1.0204 for BLAST (at most
// 22,972 over 22,513). Each bound is that plus 2%, so a closure or a slice
// per task (+0.33 per event in either cell) fails it.
func TestPaperSweepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var eng *sim.Engine
	Instrument = func(_ string, cluster *cloud.Cluster, _ *simrun.Config) { eng = cluster.Engine() }
	defer func() { Instrument = nil }()
	for _, c := range []struct {
		app   string
		limit float64
	}{
		{"ALS", 1.1415 * 1.02},
		{"BLAST", 1.0204 * 1.02},
	} {
		mk, err := workloadBuilder(c.app, 1)
		if err != nil {
			t.Fatal(err)
		}
		perRun := testing.AllocsPerRun(3, func() {
			if _, err := RunStrategy(realTime(), mk(), 4, 1); err != nil {
				t.Fatal(err)
			}
		})
		fired := eng.Fired()
		if per := perRun / float64(fired); per > c.limit {
			t.Errorf("%s real-time cell makes %.4f allocations per fired event (%.0f over %d events), want <= %.4f",
				c.app, per, perRun, fired, c.limit)
		}
	}
}
