// Package experiments reconstructs every table and figure of FRIEDA's
// evaluation (Section IV) on the simulated testbed: Table I (effect of data
// parallelization), Figure 6a/6b (effect of different partitioning) and
// Figure 7a/7b (effect of data movement), plus ablations beyond the paper.
//
// The testbed model is the paper's: a data-source node (the master runs
// "close to the source of the input data") plus 4 × c1.xlarge compute VMs
// (4 cores, 4 GB) on 100 Mbps provisioned links. Workload models are
// calibrated in DESIGN.md; absolute seconds are not expected to match the
// paper, but orderings and rough factors are, and the tests assert exactly
// those.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/simrun"
	"frieda/internal/strategy"
)

// Calibration constants (see DESIGN.md "Calibration").
const (
	// ALSImages is the paper's light-source data-set size.
	ALSImages = 1250
	// ALSImageBytes makes the distribution phase ≈700 s at 100 Mbps, the
	// transfer-bound regime of Fig. 6a.
	ALSImageBytes = 7_000_000
	// ALSCompareSec is the per-pair comparison cost: 625 pairs × ~2 s
	// ≈ the paper's 1258.8 s sequential run.
	ALSCompareSec = 2.0
	// ALSNoiseSigma is the per-pair cost jitter (comparisons are not
	// perfectly uniform). Besides realism this matters structurally: it
	// desynchronises the real-time pull pipeline, which is what lets
	// transfers overlap computation on the shared uplink.
	ALSNoiseSigma = 0.08

	// BLASTQueries is the paper's query count.
	BLASTQueries = 7500
	// BLASTQueryBytes is a typical protein FASTA record.
	BLASTQueryBytes = 2000
	// BLASTMeanSec × BLASTQueries ≈ the paper's 61 200 s sequential run.
	BLASTMeanSec = 8.16
	// BLASTDriftAmp is the slow per-query cost drift (input directories
	// are typically ordered, so consecutive queries have correlated cost);
	// with blocked pre-partitioning this produces the ~8 % imbalance
	// penalty of Table I / Fig. 6b.
	BLASTDriftAmp = 0.10
	// BLASTNoiseSigma is the iid per-query cost noise.
	BLASTNoiseSigma = 0.05
	// BLASTDBBytes is the database staged to every node.
	BLASTDBBytes = 250_000_000
)

// ALSWorkload models the image-comparison pipeline: pairwise-adjacent
// groups of two large files, near-uniform compute. scale in (0,1] shrinks
// the task count for fast tests; 1.0 is the paper's size.
func ALSWorkload(scale float64) simrun.Workload {
	n := scaled(ALSImages, scale)
	if n%2 == 1 {
		n++
	}
	files := numberedFiles("img", 5, ".pgm", n, ALSImageBytes)
	rng := rand.New(rand.NewSource(2012))
	tasks := make([]simrun.TaskSpec, 0, n/2)
	for i := 0; i+1 < n; i += 2 {
		noise := 1 + rng.NormFloat64()*ALSNoiseSigma
		if noise < 0.5 {
			noise = 0.5
		}
		tasks = append(tasks, simrun.TaskSpec{
			Index:      i / 2,
			Files:      files[i : i+2 : i+2],
			ComputeSec: ALSCompareSec * noise,
		})
	}
	return simrun.Workload{Name: "ALS", Tasks: tasks}
}

// BLASTWorkload models the sequence-search pipeline: one small query file
// per task, a common database on every node, and per-task cost with slow
// drift plus noise.
func BLASTWorkload(scale float64, seed int64) simrun.Workload {
	n := scaled(BLASTQueries, scale)
	files := numberedFiles("q", 6, ".fa", n, BLASTQueryBytes)
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]simrun.TaskSpec, n)
	for i := range tasks {
		drift := 1 + BLASTDriftAmp*math.Sin(2*math.Pi*float64(i)/float64(n))
		noise := 1 + rng.NormFloat64()*BLASTNoiseSigma
		if noise < 0.2 {
			noise = 0.2
		}
		tasks[i] = simrun.TaskSpec{
			Index:      i,
			Files:      files[i : i+1 : i+1],
			ComputeSec: BLASTMeanSec * drift * noise,
		}
	}
	return simrun.Workload{Name: "BLAST", Tasks: tasks, CommonBytes: BLASTDBBytes}
}

// numberedFiles returns n files of the given size named prefix, i
// zero-padded to width digits, suffix — fmt's "%0*d" — for i in [0, n).
// The names are windows of one string built to its exact length, and the
// files one array, so a workload costs a few allocations however many
// tasks it has; each task takes a capacity-capped window of the array.
func numberedFiles(prefix string, width int, suffix string, n int, size int64) []catalog.FileMeta {
	if limit := math.Pow10(width); float64(n) > limit {
		panic(fmt.Sprintf("experiments: %d files overflow %d-digit names", n, width))
	}
	nameLen := len(prefix) + width + len(suffix)
	var b strings.Builder
	b.Grow(n * nameLen)
	var digits [20]byte
	for i := 0; i < n; i++ {
		d := strconv.AppendInt(digits[:0], int64(i), 10)
		b.WriteString(prefix)
		for pad := len(d); pad < width; pad++ {
			b.WriteByte('0')
		}
		b.Write(d)
		b.WriteString(suffix)
	}
	names := b.String()
	files := make([]catalog.FileMeta, n)
	for i := range files {
		files[i] = catalog.FileMeta{Name: names[i*nameLen : (i+1)*nameLen], Size: size}
	}
	return files
}

// scaled shrinks a paper-scale count, keeping at least 8.
func scaled(n int, scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	out := int(float64(n) * scale)
	if out < 8 {
		out = 8
	}
	return out
}

// Testbed is the simulated ExoGENI slice.
type Testbed struct {
	Engine  *sim.Engine
	Cluster *cloud.Cluster
	// Source hosts the input data and the master.
	Source *cloud.VM
	// Workers are the compute VMs.
	Workers []*cloud.VM
}

// NewTestbed provisions the paper's deployment: one data-source node plus
// nWorkers c1.xlarge compute VMs, 100 Mbps links, instant boot.
func NewTestbed(nWorkers int, seed int64) *Testbed {
	return paperTestbed(cloud.Options{Seed: seed}, nWorkers)
}

// DefaultTreeSpec is the datacenter topology the scale sweep provisions:
// 32-host racks behind 4:1-oversubscribed ToR uplinks and an 8-switch spine
// — a conventional leaf/spine slice rather than the paper's 4-VM flat one.
func DefaultTreeSpec() netsim.TreeSpec {
	return netsim.TreeSpec{HostsPerRack: 32, Spines: 8, Oversubscription: 4}
}

// NewTreeTestbed provisions one data-source node plus nWorkers c1.xlarge
// VMs arranged in a rack/spine fat-tree (the master fills rack 0 first,
// staying close to the data).
func NewTreeTestbed(nWorkers int, seed int64) *Testbed {
	spec := DefaultTreeSpec()
	return paperTestbed(cloud.Options{Seed: seed, Topology: &spec}, nWorkers)
}

// RunStrategy executes the workload under a strategy on a fresh testbed and
// returns the result. workers limits the compute VMs used (0 = all four).
func RunStrategy(cfg simrun.Config, wl simrun.Workload, workers int, seed int64) (simrun.Result, error) {
	if workers <= 0 {
		workers = 4
	}
	return runCell(fmt.Sprintf("%s %s w=%d", wl.Name, cfg.Strategy.String(), workers),
		NewTestbed(workers, seed), cfg, wl, nil)
}

// Sequential runs the workload on a single VM with one program instance and
// local data — the paper's sequential baseline.
func Sequential(wl simrun.Workload) (simrun.Result, error) {
	cfg := simrun.Config{
		Strategy: strategy.Config{
			Kind:      strategy.PrePartition,
			Locality:  strategy.Local,
			Placement: strategy.ComputeToData,
			Multicore: false,
		},
	}
	return RunStrategy(cfg, wl, 1, 1)
}

// Named strategy configurations used by the figures. BLAST's prototype-era
// pre-partitioning is blocked (contiguous), which is what exposes the
// correlated-cost imbalance.
func preLocal(assigner string) simrun.Config {
	c := strategy.PrePartitionedLocal
	c.Assigner = assigner
	return simrun.Config{Strategy: c}
}

func preRemote(assigner string) simrun.Config {
	c := strategy.PrePartitionedRemote
	c.Assigner = assigner
	return simrun.Config{Strategy: c}
}

func realTime() simrun.Config {
	return simrun.Config{Strategy: StrictRealTime()}
}

// StrictRealTime is the paper's real-time strategy (Fig. 5c) as its
// prototype ran it: request-one-get-one, one group in flight per slot
// (Fig. 4). Every sweep runs it, whatever strategy's default window is; the
// prefetch ablation varies its Prefetch.
func StrictRealTime() strategy.Config {
	c := strategy.RealTimeRemote
	c.Prefetch = 1
	return c
}

// AssignerFor returns the pre-partition assigner each application's input
// ordering implies.
func AssignerFor(app string) string {
	if app == "BLAST" {
		return "blocked"
	}
	return "round-robin"
}
