// Package partition implements FRIEDA's partition generator — the
// control-plane component that turns the input file list into per-task file
// groups (Section II-E of the paper) — and the assignment algorithms that
// map groups onto workers for the pre-partitioning strategies.
//
// The paper ships three pairwise groupings (one-to-all, pairwise-adjacent,
// all-to-all) plus the default one-file-per-task, and calls out that "the
// design allows other schemes to be easily added": Generator is the plug-in
// point, and this package adds a sliding-window generator as an extension.
package partition

import (
	"fmt"
	"iter"

	"frieda/internal/catalog"
)

// Group is the ordered set of input files consumed by one program instance.
// Order matters: the files substitute positionally into the execution
// template ($inp1, $inp2, ...).
type Group struct {
	// Index is the group's position in generation order.
	Index int
	// Files are the group's input files. They are read-only: Single's and
	// PairwiseAdjacent's are windows of the catalogue's own files.
	Files []catalog.FileMeta
}

// Size returns the total input bytes of the group.
func (g Group) Size() int64 {
	var n int64
	for _, f := range g.Files {
		n += f.Size
	}
	return n
}

// Files yields the distinct files of groups[gi] for each gi of idx, in
// first-use order: what a pre-partitioned share stages.
func Files(groups []Group, idx []int) iter.Seq[catalog.FileMeta] {
	return func(yield func(catalog.FileMeta) bool) {
		seen := make(map[string]bool, len(idx)) // a group has a file or more
		for _, gi := range idx {
			for _, f := range groups[gi].Files {
				if !seen[f.Name] {
					seen[f.Name] = true
					if !yield(f) {
						return
					}
				}
			}
		}
	}
}

// Generator produces task groups from a catalog. Implementations must be
// deterministic: the control plane may regenerate the plan after a failure
// and must arrive at the same grouping.
type Generator interface {
	// Name identifies the scheme in configs and logs.
	Name() string
	// Generate produces the groups for the catalog's files.
	Generate(c *catalog.Catalog) ([]Group, error)
}

// Single is the paper's default: every program instance takes one input
// file.
type Single struct{}

// Name implements Generator.
func (Single) Name() string { return "single" }

// Generate implements Generator. The groups' Files are one-element windows
// of the catalogue's own files, each capped at its element, so that an
// append to one group's Files never writes into its neighbour's or the
// catalogue's. Sharing the catalogue's array is safe because nothing sorts
// or rewrites a catalogue once its source has listed it, and Files is
// read-only.
func (Single) Generate(c *catalog.Catalog) ([]Group, error) {
	files := c.Files()
	out := make([]Group, len(files))
	for i := range files {
		out[i] = Group{Index: i, Files: files[i : i+1 : i+1]}
	}
	return out, nil
}

// OneToAll pairs the first file in the input directory with each of the
// remaining files (paper: "one file in the input directory is paired with
// all the rest").
type OneToAll struct{}

// Name implements Generator.
func (OneToAll) Name() string { return "one-to-all" }

// Generate implements Generator.
func (OneToAll) Generate(c *catalog.Catalog) ([]Group, error) {
	files := c.Files()
	if len(files) < 2 {
		return nil, fmt.Errorf("partition: one-to-all needs >= 2 files, have %d", len(files))
	}
	pivot := files[0]
	out := make([]Group, 0, len(files)-1)
	for i, f := range files[1:] {
		out = append(out, Group{Index: i, Files: []catalog.FileMeta{pivot, f}})
	}
	return out, nil
}

// PairwiseAdjacent pairs consecutive disjoint files: (f0,f1), (f2,f3), ...
// This is the grouping the ALS image-comparison evaluation uses: 1250
// images become 625 two-file tasks. An odd trailing file is an error — the
// application defines no unary comparison.
type PairwiseAdjacent struct{}

// Name implements Generator.
func (PairwiseAdjacent) Name() string { return "pairwise-adjacent" }

// Generate implements Generator. The groups' Files are two-element windows
// of the catalogue's own files, each capped at its pair, as Single's are.
func (PairwiseAdjacent) Generate(c *catalog.Catalog) ([]Group, error) {
	files := c.Files()
	if len(files) == 0 || len(files)%2 != 0 {
		return nil, fmt.Errorf("partition: pairwise-adjacent needs an even file count, have %d", len(files))
	}
	out := make([]Group, len(files)/2)
	for i := range out {
		out[i] = Group{Index: i, Files: files[2*i : 2*i+2 : 2*i+2]}
	}
	return out, nil
}

// AllToAll pairs every file with every other file (unordered pairs):
// n(n-1)/2 groups.
type AllToAll struct{}

// Name implements Generator.
func (AllToAll) Name() string { return "all-to-all" }

// Generate implements Generator.
func (AllToAll) Generate(c *catalog.Catalog) ([]Group, error) {
	files := c.Files()
	if len(files) < 2 {
		return nil, fmt.Errorf("partition: all-to-all needs >= 2 files, have %d", len(files))
	}
	out := make([]Group, 0, len(files)*(len(files)-1)/2)
	for i := 0; i < len(files); i++ {
		for j := i + 1; j < len(files); j++ {
			out = append(out, Group{Index: len(out), Files: []catalog.FileMeta{files[i], files[j]}})
		}
	}
	return out, nil
}

// SlidingWindow pairs overlapping consecutive files: (f0,f1), (f1,f2), ...
// — an extension for pipelines that compare each frame with its successor.
type SlidingWindow struct{}

// Name implements Generator.
func (SlidingWindow) Name() string { return "sliding-window" }

// Generate implements Generator.
func (SlidingWindow) Generate(c *catalog.Catalog) ([]Group, error) {
	files := c.Files()
	if len(files) < 2 {
		return nil, fmt.Errorf("partition: sliding-window needs >= 2 files, have %d", len(files))
	}
	out := make([]Group, 0, len(files)-1)
	for i := 0; i+1 < len(files); i++ {
		out = append(out, Group{Index: i, Files: []catalog.FileMeta{files[i], files[i+1]}})
	}
	return out, nil
}

// ByName returns the named generator. It recognises the paper's schemes and
// this package's sliding-window extension.
func ByName(name string) (Generator, error) {
	switch name {
	case "single", "":
		return Single{}, nil
	case "one-to-all":
		return OneToAll{}, nil
	case "pairwise-adjacent":
		return PairwiseAdjacent{}, nil
	case "all-to-all":
		return AllToAll{}, nil
	case "sliding-window":
		return SlidingWindow{}, nil
	default:
		return nil, fmt.Errorf("partition: unknown grouping %q", name)
	}
}
