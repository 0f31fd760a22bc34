package experiments

import (
	"fmt"

	"frieda/internal/exprun"
	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/simrun"
	"frieda/internal/storage"
)

// storageSpec aliases the tier spec for the storage sweep.
type storageSpec = storage.Spec

// Big scratch variants of the default tiers: the 1250-image ALS partition
// (~2.2 GB per worker) must fit, so capacity is raised while the
// performance characteristics stay those of storage.Default*.
func localSpec() storageSpec {
	s := storage.DefaultLocal
	s.CapacityBytes = 100e9
	return s
}

func blockSpec() storageSpec { return storage.DefaultBlock }

func networkedSpec() storageSpec { return storage.DefaultNetworked }

// AblationStripes quantifies the GridFTP-style striped transfer the paper
// lists as future work (Section II-C): one 50 MB dataset transfer crosses a
// shared 100 Mbps fabric that also carries four long-lived background
// flows. Fair-share allocation gives each flow one share, so striping the
// transfer k ways claims k shares — exactly why GridFTP stripes on shared
// wide-area paths. The sweep reports completion time vs stripe count.
func AblationStripes(scale float64) ([]SweepRow, error) {
	const (
		transferBytes = 50e6
		background    = 4
	)
	_ = scale // the scenario is fixed-size; scale kept for interface symmetry
	counts := []int{1, 2, 4, 8}
	var cells []exprun.Cell[float64]
	for _, stripes := range counts {
		stripes := stripes
		cells = append(cells, cell(fmt.Sprintf("stripes/k=%d", stripes),
			func() (float64, error) { return stripedTransferTime(transferBytes, stripes, background) }))
	}
	results, err := runCells(cells)
	rows := make([]SweepRow, 0, len(counts))
	for i, stripes := range counts {
		rows = append(rows, SweepRow{
			Param:  float64(stripes),
			Series: map[string]float64{"completion_sec": results[i]},
		})
	}
	return rows, err
}

// stripedTransferTime simulates one transfer split into `stripes` parallel
// flows over a fabric congested by `background` long-lived flows, and
// returns the time the last stripe finishes.
func stripedTransferTime(bytes float64, stripes, background int) (float64, error) {
	if stripes < 1 {
		return 0, fmt.Errorf("experiments: %d stripes", stripes)
	}
	eng := sim.NewEngine()
	net := netsim.New(eng)
	fabric := net.NewFabric("wan", netsim.Mbps(100))
	src := net.NewHost("src", netsim.Mbps(1000), netsim.Mbps(1000))
	dst := net.NewHost("dst", netsim.Mbps(1000), netsim.Mbps(1000))

	// Background traffic: long-lived flows between other host pairs that
	// share only the fabric.
	var route [netsim.MaxRoute]*netsim.Link
	for i := 0; i < background; i++ {
		s := net.NewHost(fmt.Sprintf("bg-s%d", i), netsim.Mbps(1000), netsim.Mbps(1000))
		d := net.NewHost(fmt.Sprintf("bg-d%d", i), netsim.Mbps(1000), netsim.Mbps(1000))
		net.StartFlow(10e9, netsim.AppendPath(route[:0], s, d, fabric), nil) // effectively endless
	}

	st := &stripeSet{eng: eng, remaining: stripes}
	per := bytes / float64(stripes)
	for i := 0; i < stripes; i++ {
		net.StartFlow(per, netsim.AppendPath(route[:0], src, dst, fabric), st)
	}
	// Run until the striped transfer completes; the background flows would
	// keep the engine busy long after.
	for st.remaining > 0 && eng.Step() {
	}
	if st.remaining > 0 {
		return 0, fmt.Errorf("experiments: striped transfer stalled")
	}
	return float64(st.last), nil
}

// stripeSet owns the stripes of one transfer: it counts them down and keeps
// the time the last one finished.
type stripeSet struct {
	eng       *sim.Engine
	remaining int
	last      sim.Time
}

func (st *stripeSet) FlowDone(*netsim.Flow) {
	st.remaining--
	if at := st.eng.Now(); at > st.last {
		st.last = at
	}
}

func (*stripeSet) FlowInterrupted(*netsim.Flow, float64) {}

// AblationStorage sweeps the worker scratch tier on the ALS workload over a
// fast (1 Gbps) network, where the media bandwidth — not the provisioned
// link — bounds staging: the paper's Section III-A storage trade-off.
// Reported per tier: makespan under the real-time strategy.
func AblationStorage(scale float64) ([]SweepRow, error) {
	tiers := []struct {
		name string
		spec storageSpec
	}{
		{"local", localSpec()},
		{"block", blockSpec()},
		{"networked", networkedSpec()},
	}
	var cells []exprun.Cell[simrun.Result]
	for _, tier := range tiers {
		tier := tier
		cells = append(cells, cell(fmt.Sprintf("storage/ALS/%s/seed=1", tier.name),
			func() (simrun.Result, error) {
				spec := tier.spec
				cfg := realTime()
				cfg.Storage = &spec
				return RunStrategyBW(cfg, ALSWorkload(scale), 4, 1, 1000)
			}))
	}
	results, err := runCells(cells)
	rows := make([]SweepRow, 0, len(tiers))
	for i, tier := range tiers {
		rows = append(rows, SweepRow{
			Param: float64(i),
			Series: map[string]float64{
				"makespan_sec": results[i].MakespanSec,
				"write_MBps":   tier.spec.WriteBps / 1e6,
			},
		})
	}
	return rows, err
}
