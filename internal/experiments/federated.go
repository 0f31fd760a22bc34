package experiments

import (
	"fmt"

	"frieda/internal/cloud"
	"frieda/internal/exprun"
	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/simrun"
)

// AblationFederated explores the paper's federated-sites motivation ("the
// cloud data-management additionally needs to be network topology aware in
// federated cloud sites"): the ALS data lives at site A; workers are split
// between site A and a remote site B reachable only through a shared
// 50 Mbps / 50 ms wide-area fabric. Three deployments are compared under
// the real-time strategy: all four workers local to the data, half remote,
// and all remote.
func AblationFederated(scale float64) ([]SweepRow, error) {
	splits := []int{0, 2, 4}
	var cells []exprun.Cell[simrun.Result]
	for _, remoteWorkers := range splits {
		remoteWorkers := remoteWorkers
		cells = append(cells, cell(fmt.Sprintf("federated/ALS/remote=%d/seed=1", remoteWorkers),
			func() (simrun.Result, error) {
				return RunFederated(ALSWorkload(scale), 4-remoteWorkers, remoteWorkers, netsim.Mbps(50), 0.05)
			}))
	}
	results, err := runCells(cells)
	rows := make([]SweepRow, 0, len(splits))
	for i, remoteWorkers := range splits {
		rows = append(rows, SweepRow{
			Param:  float64(remoteWorkers),
			Series: map[string]float64{"makespan_sec": results[i].MakespanSec},
		})
	}
	return rows, err
}

// RunFederated builds a two-site topology: the data source plus localN
// workers at site 1 (direct 100 Mbps LAN paths), remoteN workers at site 2;
// cross-site flows traverse a shared WAN fabric with the given capacity and
// one-way latency. Same-site traffic bypasses the fabric.
func RunFederated(wl simrun.Workload, localN, remoteN int, wanBps, wanLatencySec float64) (simrun.Result, error) {
	if localN+remoteN < 1 {
		return simrun.Result{}, fmt.Errorf("experiments: federated run with no workers")
	}
	tb := paperTestbed(cloud.Options{Seed: 1, FabricBps: wanBps}, localN+remoteN)
	tb.Cluster.Fabric().Link().SetLatency(sim.Duration(wanLatencySec))
	tb.Cluster.SetSite(tb.Source, 1)
	for _, vm := range tb.Workers[:localN] {
		tb.Cluster.SetSite(vm, 1)
	}
	for _, vm := range tb.Workers[localN:] {
		tb.Cluster.SetSite(vm, 2)
	}
	return runCell(fmt.Sprintf("%s federated %dL+%dR", wl.Name, localN, remoteN), tb, realTime(), wl, nil)
}
