package experiments

import (
	"strings"
	"testing"
	"time"

	"frieda/internal/history"
	"frieda/internal/netsim"
	"frieda/internal/simrun"
	"frieda/internal/strategy"
)

// TestAdvisorLearnsFromRuns closes the paper's future-work loop: execute
// each strategy on the simulated testbed, record outcomes in the history
// store, and verify the empirical advisor picks the strategy the evaluation
// shows to be best — for both applications.
func TestAdvisorLearnsFromRuns(t *testing.T) {
	store := history.NewStore()
	record := func(app string, cfg simrun.Config, wl simrun.Workload) {
		res, err := RunStrategy(cfg, wl, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Add(history.Record{
			App:         app,
			Strategy:    cfg.Strategy.String(),
			Workers:     4,
			Slots:       16,
			MakespanSec: res.MakespanSec,
			BytesMoved:  res.BytesMoved,
			Succeeded:   res.Succeeded,
			When:        time.Unix(1341360000, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	scale := 0.1
	for _, app := range []string{"ALS", "BLAST"} {
		mk, err := workloadBuilder(app, scale)
		if err != nil {
			t.Fatal(err)
		}
		wl := mk()
		record(app, preRemote(AssignerFor(app)), wl)
		record(app, realTime(), wl)
	}
	for _, app := range []string{"ALS", "BLAST"} {
		rec, err := store.Empirical(app, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rec.Strategy, "real-time") {
			t.Fatalf("%s: advisor picked %q (%s)", app, rec.Strategy, rec.Reason)
		}
	}
}

// TestModelAdvisorMatchesMeasurements checks the model-based advisor's
// predictions against what the simulator actually measures for the ALS
// profile.
func TestModelAdvisorMatchesMeasurements(t *testing.T) {
	wl := ALSWorkload(1.0)
	rec, cfg := history.Model(
		history.WorkloadProfile{
			TotalInputBytes: wl.TotalInputBytes(),
			TotalComputeSec: wl.TotalComputeSec(),
			CostVariance:    ALSNoiseSigma * ALSNoiseSigma,
		},
		history.ClusterProfile{Workers: 4, SlotsPerNode: 4, UplinkBps: netsim.Mbps(100)},
	)
	if cfg.Kind != strategy.RealTime {
		t.Fatalf("model picked %s", rec.Strategy)
	}
	res, err := RunStrategy(simrun.Config{Strategy: cfg}, wl, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Predicted makespan (the transfer bound) within 10% of measured.
	if rec.ExpectedMakespanSec == 0 {
		t.Fatal("no prediction")
	}
	ratio := res.MakespanSec / rec.ExpectedMakespanSec
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("prediction %.0f vs measured %.0f (ratio %.2f)", rec.ExpectedMakespanSec, res.MakespanSec, ratio)
	}
}
