package partition

import (
	"fmt"
	"sort"
)

// Assignment maps each group index to a worker index — the pre-partitioning
// plan the controller hands to the master before execution starts.
type Assignment struct {
	// Workers is the number of workers the plan targets.
	Workers int
	// Owner[i] is the worker index that processes group i.
	Owner []int
}

// PerWorker returns the group indices assigned to each worker, in group
// order.
func (a Assignment) PerWorker() [][]int {
	out := make([][]int, a.Workers)
	for g, w := range a.Owner {
		out[w] = append(out[w], g)
	}
	return out
}

// Assigner distributes groups across workers for pre-partitioning.
type Assigner interface {
	// Name identifies the algorithm.
	Name() string
	// Assign maps len(groups) groups onto workers.
	Assign(groups []Group, workers int) (Assignment, error)
}

// RoundRobin deals groups out cyclically — the paper prototype's behaviour,
// optimal when every computation is "more or less identical".
type RoundRobin struct{}

// Name implements Assigner.
func (RoundRobin) Name() string { return "round-robin" }

// Assign implements Assigner.
func (RoundRobin) Assign(groups []Group, workers int) (Assignment, error) {
	if workers <= 0 {
		return Assignment{}, fmt.Errorf("partition: %d workers", workers)
	}
	owner := make([]int, len(groups))
	for i := range groups {
		owner[i] = i % workers
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}

// Blocked gives each worker one contiguous run of groups, preserving
// adjacency (useful when consecutive groups share files, as with
// sliding-window grouping, so shared files transfer once).
type Blocked struct{}

// Name implements Assigner.
func (Blocked) Name() string { return "blocked" }

// Assign implements Assigner.
func (Blocked) Assign(groups []Group, workers int) (Assignment, error) {
	if workers <= 0 {
		return Assignment{}, fmt.Errorf("partition: %d workers", workers)
	}
	n := len(groups)
	owner := make([]int, n)
	base := n / workers
	extra := n % workers
	g := 0
	for w := 0; w < workers; w++ {
		count := base
		if w < extra {
			count++
		}
		for k := 0; k < count; k++ {
			owner[g] = w
			g++
		}
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}

// SizeBalanced greedily assigns each group (largest input first) to the
// worker with the least total assigned bytes — LPT scheduling on input
// size. An extension over the paper's prototype for skewed file sizes.
type SizeBalanced struct{}

// Name implements Assigner.
func (SizeBalanced) Name() string { return "size-balanced" }

// Assign implements Assigner.
func (SizeBalanced) Assign(groups []Group, workers int) (Assignment, error) {
	if workers <= 0 {
		return Assignment{}, fmt.Errorf("partition: %d workers", workers)
	}
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return groups[order[a]].Size() > groups[order[b]].Size()
	})
	owner := make([]int, len(groups))
	load := make([]int64, workers)
	for _, g := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		owner[g] = best
		load[best] += groups[g].Size()
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}
