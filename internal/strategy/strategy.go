// Package strategy defines FRIEDA's data-management strategies (Section III
// of the paper) as declarative configuration the controller hands to the
// master. A strategy combines a partitioning mode (none / pre-partitioned /
// real-time), a data locality (local vs remote source), a grouping scheme,
// an assignment algorithm, and a placement direction (move data to
// computation vs computation to data).
package strategy

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"frieda/internal/catalog"
	"frieda/internal/partition"
)

// Kind is the partitioning mode.
type Kind int

const (
	// NoPartition replicates the complete dataset to every node — the
	// paper's "common data" mode for database-style applications (BLAST).
	NoPartition Kind = iota
	// PrePartition splits the group list across workers before computation
	// starts and transfers each partition up front; execution begins only
	// after the transfer phase completes.
	PrePartition
	// RealTime transfers lazily: the master does not send a group until a
	// worker asks for it. Transfer overlaps computation and the scheme is
	// inherently load-balanced.
	RealTime
)

var kindNames = []string{NoPartition: "no-partition", PrePartition: "pre-partition", RealTime: "real-time"}

// String names the kind.
func (k Kind) String() string { return enumString(kindNames, k, "Kind") }

// MarshalText spells the kind; an out-of-range kind is an error.
func (k Kind) MarshalText() ([]byte, error) { return enumText(kindNames, k, "kind") }

// UnmarshalText parses a kind's spelling; any other text is an error.
func (k *Kind) UnmarshalText(b []byte) error { return enumParse(kindNames, k, b, "kind") }

// Locality says where input data resides when execution starts.
type Locality int

const (
	// Remote means data starts at the master's source and must cross the
	// network (Fig. 5 "pre-partitioning remote" / "real-time").
	Remote Locality = iota
	// Local means data is already on each worker's local disk — e.g.
	// baked into the VM image (Fig. 5 "pre-partitioning local").
	Local
)

var localityNames = []string{Remote: "remote", Local: "local"}

// String names the locality.
func (l Locality) String() string { return enumString(localityNames, l, "Locality") }

// MarshalText spells the locality; an out-of-range locality is an error.
func (l Locality) MarshalText() ([]byte, error) { return enumText(localityNames, l, "locality") }

// UnmarshalText parses a locality's spelling; any other text is an error.
func (l *Locality) UnmarshalText(b []byte) error { return enumParse(localityNames, l, b, "locality") }

// Placement is the data-vs-computation movement direction of Fig. 7.
type Placement int

const (
	// DataToCompute ships input data to wherever workers run.
	DataToCompute Placement = iota
	// ComputeToData schedules each task on a node already holding its
	// inputs.
	ComputeToData
)

var placementNames = []string{DataToCompute: "data-to-compute", ComputeToData: "compute-to-data"}

// String names the placement.
func (p Placement) String() string { return enumString(placementNames, p, "Placement") }

// MarshalText spells the placement; an out-of-range placement is an error.
func (p Placement) MarshalText() ([]byte, error) { return enumText(placementNames, p, "placement") }

// UnmarshalText parses a placement's spelling; any other text is an error.
func (p *Placement) UnmarshalText(b []byte) error {
	return enumParse(placementNames, p, b, "placement")
}

// The three enums share one codec: names[v] spells v. These methods are
// the only place a spelling is parsed; the flags (flag.TextVar) and the job
// file (encoding/json) both go through them. The wire carries the
// integers, and Validate checks their range.

func inRange[E ~int](names []string, v E) bool { return v >= 0 && int(v) < len(names) }

func enumString[E ~int](names []string, v E, typ string) string {
	if inRange(names, v) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, int(v))
}

func enumText[E ~int](names []string, v E, what string) ([]byte, error) {
	if !inRange(names, v) {
		return nil, fmt.Errorf("strategy: unknown %s %d", what, int(v))
	}
	return []byte(names[v]), nil
}

func enumParse[E ~int](names []string, v *E, text []byte, what string) error {
	for i, name := range names {
		if string(text) == name {
			*v = E(i)
			return nil
		}
	}
	return fmt.Errorf("strategy: unknown %s %q (want %s)", what, text, strings.Join(names, " | "))
}

// Config is a complete data-management strategy. It is also the strategy's
// only spelling: the command-line flags, the JSON job file (whose keys are
// the tags below) and the wire all carry this value.
type Config struct {
	// Kind is the partitioning mode.
	Kind Kind `json:"mode"`
	// Locality is where data resides at start.
	Locality Locality `json:"locality,omitempty"`
	// Placement is the movement direction.
	Placement Placement `json:"placement,omitempty"`
	// Grouping names the partition.Generator scheme ("single",
	// "pairwise-adjacent", ...). Empty means "single".
	Grouping string `json:"grouping,omitempty"`
	// Assigner selects the pre-partition assignment algorithm
	// ("round-robin", "blocked", "size-balanced"). Empty means round-robin.
	Assigner string `json:"assigner,omitempty"`
	// Multicore clones the program once per worker core, as the paper's
	// multicore setting does. Off means one instance per node.
	Multicore bool `json:"multicore,omitempty"`
	// Prefetch is the number of groups the master keeps in flight per
	// worker slot under RealTime: 1 is the paper's strict
	// request-one-get-one, larger values pipeline transfer behind compute,
	// and 0 lets the master size the windows as the job runs: from one
	// group per slot, doubled while the job's completions per second rise,
	// up to AutoCeiling (sched.Ledger, ForJob). A job of bulk groups keeps
	// one per slot. At most MaxPrefetch.
	Prefetch int `json:"prefetch,omitempty"`
	// CommonFiles names files that must reside on every node regardless of
	// partitioning (the BLAST database). They are staged before execution.
	CommonFiles []string `json:"common,omitempty"`
}

// PipelineBytes is the most input a grown window holds per slot: a
// Prefetch of 0 grows to at most PipelineBytes' worth of the job's mean
// group per slot (AutoCeiling). A job whose mean group holds more than half
// of it keeps one group per slot, without measuring. Moving a group that
// large costs far more than the round trip a deeper window hides: on TCP
// loopback a window of three lost 3% at 1 MiB groups and 10% at 4 MiB,
// 64 KiB groups gained nothing past 4 and 256 KiB groups lost past 8
// (EXPERIMENTS.md's real-runtime group-size sweep). The ceiling it sets,
// 16 groups of 64 KiB and 4 of 256 KiB, bounds what the window rule may
// try where its measure is flat.
const PipelineBytes = 1 << 20

// MaxAutoPrefetch, a power of two, is the most groups per slot a Prefetch
// of 0 grows a worker's window to. The task rate of 1 KiB groups on TCP
// loopback still rose from 32 to 64; the master's handoffs are sized from
// it once per job, which costs rt_small_tcp about 6 bytes a task.
const MaxAutoPrefetch = 64

// JobShare bounds a grown window by the job: at most one JobShare'th of
// its groups per slot, and never fewer than 4. The master sizes its
// handoffs and send buffers from the ceiling once per job, so a short job
// would pay a deep window's memory for the few rounds it could use it, and
// the tail rule leaves a deep window little to do near the end of a short
// job anyway. It leaves rt_small_tcp's 8,192 groups at 64.
const JobShare = 64

// MaxPrefetch bounds Prefetch. A window is slots × Prefetch groups, kept in
// 32 bits; a thousand groups queued behind each slot is already far past
// any gain.
const MaxPrefetch = 1 << 10

// Validate checks that each enum is one of its constants and that the
// strategy is consistent, and resolves defaulted fields; a Prefetch of 0
// stays 0.
func (c *Config) Validate() error {
	if !inRange(kindNames, c.Kind) || !inRange(localityNames, c.Locality) || !inRange(placementNames, c.Placement) {
		return fmt.Errorf("strategy: %s has a value outside its constants", *c)
	}
	if c.Grouping == "" {
		c.Grouping = "single"
	}
	if _, err := partition.ByName(c.Grouping); err != nil {
		return err
	}
	if c.Assigner == "" {
		c.Assigner = "round-robin"
	}
	if _, err := AssignerByName(c.Assigner); err != nil {
		return err
	}
	if c.Prefetch < 0 || c.Prefetch > MaxPrefetch {
		return fmt.Errorf("strategy: prefetch %d outside [0, %d]", c.Prefetch, MaxPrefetch)
	}
	if c.Kind == NoPartition && c.Placement == ComputeToData {
		return fmt.Errorf("strategy: no-partition replicates everywhere; compute-to-data is meaningless")
	}
	if c.Locality == Local && c.Kind == RealTime {
		return fmt.Errorf("strategy: real-time partitioning requires a remote source (local data is already placed)")
	}
	return nil
}

// Clone returns a copy of c that shares no memory with it.
func (c Config) Clone() Config {
	c.CommonFiles = slices.Clone(c.CommonFiles)
	return c
}

// String renders the strategy compactly for logs and reports.
func (c Config) String() string {
	grouping := c.Grouping
	if grouping == "" {
		grouping = "single"
	}
	assigner := c.Assigner
	if assigner == "" {
		assigner = "round-robin"
	}
	s := fmt.Sprintf("%s/%s/%s grouping=%s", c.Kind, c.Locality, c.Placement, grouping)
	if c.Kind == PrePartition {
		s += " assign=" + assigner
	}
	if c.Kind == RealTime && c.Prefetch == 0 {
		s += " prefetch=auto"
	} else if c.Kind == RealTime && c.Prefetch > 1 {
		s += " prefetch=" + strconv.Itoa(c.Prefetch)
	}
	if c.Multicore {
		s += " multicore"
	}
	return s
}

// Slots is how many groups a worker with cores cores runs at once: one per
// core under Multicore, else one.
func (c Config) Slots(cores int) int {
	if c.Multicore && cores > 1 {
		return cores
	}
	return 1
}

// Window is the most groups the master keeps in flight on a worker of
// slots slots: Prefetch per slot under RealTime, else one per slot. A
// Prefetch of 0 starts at one per slot (Adaptive).
func (c Config) Window(slots int) int {
	if c.Kind == RealTime && c.Prefetch > 1 {
		return slots * c.Prefetch
	}
	return slots
}

// Adaptive reports whether a worker's window grows as it runs, from
// Window's one group per slot up to AutoCeiling: under RealTime with a
// Prefetch of 0 that ForJob left.
func (c Config) Adaptive() bool { return c.Kind == RealTime && c.Prefetch == 0 }

// ForJob resolves c for a job of n groups whose inputs total bytes(), and
// returns the most groups per slot its windows may hold. A real-time
// Prefetch of 0 may grow to AutoCeiling; where that is 1, or there are no
// groups, it is pinned to 1. Any other c comes back as it is, with its
// Window per slot, and bytes is called only to resolve.
func (c Config) ForJob(n int, bytes func() int64) (Config, int) {
	if !c.Adaptive() {
		return c, c.Window(1)
	}
	ceiling := 1
	if n > 0 {
		ceiling = AutoCeiling(n, bytes())
	}
	if ceiling == 1 {
		c.Prefetch = 1
	}
	return c, ceiling
}

// AutoCeiling is the most groups per slot a Prefetch of 0 grows to on n
// groups whose inputs total bytes: PipelineBytes over the mean group, and a
// JobShare'th of the groups but at least 4, down to a power of two (the
// window doubles), at least 1 and at most MaxAutoPrefetch.
func AutoCeiling(n int, bytes int64) int {
	fit := min(MaxAutoPrefetch, max(4, int64(n)/JobShare))
	if bytes > 0 {
		fit = max(1, min(fit, PipelineBytes*int64(n)/bytes))
	}
	return 1 << (bits.Len64(uint64(fit)) - 1)
}

// Fetches reports whether a dispatched group streams the inputs its worker
// lacks: whenever the data is remote, for every kind. A staged backlog
// finds nothing missing; a requeued group or a late joiner's does.
func (c Config) Fetches() bool { return c.Locality == Remote }

// Generator resolves the grouping scheme, which Groups runs over a job.
func (c Config) Generator() (partition.Generator, error) {
	return partition.ByName(c.Grouping)
}

// Groups is the job's group list: the grouping scheme run over cat less the
// common files, which are staged to every node apart from any group. It is
// the one derivation both executors use, the real master and the
// simulator, so one strategy over one catalogue gives them the same groups.
func (c Config) Groups(cat *catalog.Catalog) ([]partition.Group, error) {
	gen, err := c.Generator()
	if err != nil {
		return nil, err
	}
	return gen.Generate(cat.Without(c.CommonFiles))
}

// AssignerByName resolves an assignment algorithm by name.
func AssignerByName(name string) (partition.Assigner, error) {
	switch name {
	case "round-robin", "":
		return partition.RoundRobin{}, nil
	case "blocked":
		return partition.Blocked{}, nil
	case "size-balanced":
		return partition.SizeBalanced{}, nil
	default:
		return nil, fmt.Errorf("strategy: unknown assigner %q", name)
	}
}

// Named presets used throughout the evaluation.
var (
	// PrePartitionedLocal is Fig. 5(b): data local to computation.
	PrePartitionedLocal = Config{Kind: PrePartition, Locality: Local, Placement: ComputeToData, Multicore: true}
	// PrePartitionedRemote is Fig. 5(a): pre-defined partitions read from
	// the remote source, transfer then execute.
	PrePartitionedRemote = Config{Kind: PrePartition, Locality: Remote, Placement: DataToCompute, Multicore: true}
	// RealTimeRemote is Fig. 5(c): lazy per-request distribution, with each
	// worker's window grown while it pays (Adaptive), and one group per slot
	// for bulk groups (ForJob). Set Prefetch to 1 for the paper's strict
	// request-one-get-one.
	RealTimeRemote = Config{Kind: RealTime, Locality: Remote, Placement: DataToCompute, Multicore: true}
	// CommonData is the no-partitioning mode: full dataset everywhere.
	CommonData = Config{Kind: NoPartition, Locality: Remote, Placement: DataToCompute, Multicore: true}
)
