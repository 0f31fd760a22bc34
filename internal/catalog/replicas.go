package catalog

import (
	"slices"
	"strings"
)

// Replicas tracks which nodes hold a copy of each file — the simulated
// master's view of data placement after distribution, and what its
// journal records and replays. (The real master keeps only what it sent
// each worker, in a per-worker IDSet.)
//
// Files and nodes are dense int32 ids, given out by RegisterFiles and
// RegisterNode, and every other method takes ids: the simulator keeps its
// own, and journal replay turns names into ids itself (State.Apply). The
// map keeps each id's name only to give names back out, in name order
// wherever order is observable: FileName, WalkUnderID, DropNodeID and
// DumpReplicas.
//
// It also maintains the under-replication index the repair scan walks:
// once a target replication factor is established (by the first
// UnderCount or WalkUnderID call), under is exactly {f known : holders(f) <
// target} in name order, and every mutator fixes the membership of the
// file it touches before it returns. A Replicas that is never asked has
// target 0 and its mutators do no index work.
//
// The runner or State that made a map is its only user; it is not safe for
// concurrent use.
type Replicas struct {
	// files is indexed by file id, nodes holds each node id's name.
	// unordered is set once a file name did not sort after every earlier
	// one; until then id order is name order.
	files     []fileState
	unordered bool
	nodes     []string
	// target is the replication factor under is maintained for; 0 means
	// none established yet. One target at a time: asking for another
	// rebuilds the index (correct, but O(files) per switch).
	target int
	under  []int32
}

// fileState is one file: its name, its holders — an IDSet over node ids,
// one inline, a few in a sorted slice, a bitset once that is smaller, so
// membership stays O(1) at 65,536 holders — and whether it is known. known
// remembers every file added or noted, even after its last holder
// vanished, until it is forgotten: without it a zero-replica file would be
// invisible to the under-replication index — exactly the file that most
// needs repair. A file with a holder is known.
type fileState struct {
	name    string
	holders IDSet
	known   bool
}

// NewReplicas returns an empty replica map.
func NewReplicas() *Replicas { return &Replicas{} }

// RegisterFiles gives each of names, none of them registered yet, the next
// file id in order, and returns the first. Names given in ascending order
// keep id order equal to name order, which lets the index compare ids.
func (r *Replicas) RegisterFiles(names []string) int32 {
	first := int32(len(r.files))
	r.files = slices.Grow(r.files, len(names))
	for _, n := range names {
		if k := len(r.files); k > 0 && n <= r.files[k-1].name {
			r.unordered = true
		}
		r.files = append(r.files, fileState{name: n})
	}
	return first
}

// RegisterNode gives name, not registered yet, the next node id.
func (r *Replicas) RegisterNode(name string) int32 {
	r.nodes = append(r.nodes, name)
	return int32(len(r.nodes) - 1)
}

// ReserveNodes makes room for n more node registrations.
func (r *Replicas) ReserveNodes(n int) {
	r.nodes = slices.Grow(r.nodes, n)
}

// FileName returns the name of file id.
func (r *Replicas) FileName(id int32) string {
	return r.files[id].name
}

// Reset forgets every replica and every known file and drops the index
// target, keeping the ids: the map an amnesiac master restarts with.
func (r *Replicas) Reset() {
	for i := range r.files {
		r.files[i] = fileState{name: r.files[i].name}
	}
	r.target = 0
	r.under = r.under[:0]
}

// less orders file ids by name, by id while that is the same order.
func (r *Replicas) less(a, b int32) bool {
	if r.unordered {
		return r.files[a].name < r.files[b].name
	}
	return a < b
}

// sortByName orders file ids by name.
func (r *Replicas) sortByName(ids []int32) {
	if !r.unordered {
		slices.Sort(ids)
		return
	}
	files := r.files
	slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(files[a].name, files[b].name) })
}

// underPos is the position of f in the index, or where it would go.
func (r *Replicas) underPos(f int32) (int, bool) {
	lo, hi := 0, len(r.under)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.less(r.under[m], f) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.under) && r.under[lo] == f
}

// member reports whether f belongs in the index at the current target:
// never with no target.
func (r *Replicas) member(f int32) bool {
	return r.files[f].known && r.files[f].holders.Len() < r.target
}

// fix moves f into or out of the index after a mutation; was is its
// membership before.
func (r *Replicas) fix(f int32, was bool) {
	now := r.member(f)
	if now == was {
		return
	}
	i, _ := r.underPos(f)
	if now {
		r.under = slices.Insert(r.under, i, f)
	} else {
		r.under = slices.Delete(r.under, i, i+1)
	}
}

// index returns the under-target list for rf, building it by one full scan
// when rf is not the established target; rf < 1 is no target, so nothing is
// under it. The slice is the index itself, so the next mutation may change
// it.
func (r *Replicas) index(rf int) []int32 {
	if rf < 1 {
		return nil
	}
	if r.target != rf {
		r.target = rf
		r.under = r.under[:0]
		for f := range r.files {
			if r.member(int32(f)) {
				r.under = append(r.under, int32(f))
			}
		}
		r.sortByName(r.under)
	}
	return r.under
}

// The mutators and queries. Ids come from RegisterFiles and RegisterNode;
// an unregistered file id panics.

// AddID records that node holds file and reports whether that is new.
func (r *Replicas) AddID(file, node int32) bool {
	was := r.member(file)
	if !r.files[file].holders.Add(node) {
		return false
	}
	r.files[file].known = true
	r.fix(file, was)
	return true
}

// RemoveID forgets one replica (e.g. the node failed).
func (r *Replicas) RemoveID(file, node int32) {
	was := r.member(file)
	if r.files[file].holders.Remove(node) {
		r.fix(file, was)
	}
}

// DropNodeID forgets every replica on the node and returns the files that
// lost a copy, in name order.
func (r *Replicas) DropNodeID(node int32) []int32 {
	var lost []int32
	for f := range r.files {
		if r.files[f].holders.Has(node) {
			r.RemoveID(int32(f), node)
			lost = append(lost, int32(f))
		}
	}
	r.sortByName(lost)
	return lost
}

// HasID reports whether node holds file.
func (r *Replicas) HasID(file, node int32) bool {
	return r.files[file].holders.Has(node)
}

// CountID returns the number of live replicas of file.
func (r *Replicas) CountID(file int32) int {
	return r.files[file].holders.Len()
}

// ForgetID removes file from the replica map entirely, including the known
// set — used when a file is declared permanently lost and should stop
// showing up in repair scans.
func (r *Replicas) ForgetID(file int32) {
	was := r.member(file)
	r.files[file].holders.Clear()
	r.files[file].known = false
	r.fix(file, was)
}

// NoteID marks file as known without recording a holder, so it shows up in
// repair scans. An amnesiac master uses it to re-derive "someone must hold
// this" facts (evacuated files) it can no longer attribute to a node.
func (r *Replicas) NoteID(file int32) {
	if !r.files[file].known {
		r.files[file].known = true
		r.fix(file, false)
	}
}

// UnderCount returns how many known files have fewer than rf live replicas,
// files with none included; rf < 1 is no target, so none is under it.
func (r *Replicas) UnderCount(rf int) int {
	return len(r.index(rf))
}

// WalkUnderID calls fn for each file UnderCount(rf) counts, in name order
// and in place, until fn returns false. fn may mutate the map — forget the
// file it was handed or any other, add, remove: each step resumes at the
// first indexed file that sorts after the one just visited, so none is
// skipped or repeated whatever fn removed or inserted.
func (r *Replicas) WalkUnderID(rf int, fn func(file int32) bool) {
	under := r.index(rf)
	for i := 0; i < len(under); {
		f := under[i]
		if !fn(f) {
			return
		}
		if under = r.index(rf); i < len(under) && under[i] == f {
			i++ // nothing before the cursor moved
		} else if j, found := r.underPos(f); found {
			i = j + 1
		} else {
			i = j
		}
	}
}

// holders returns the holders of f in name order.
func (r *Replicas) holders(f int32) []string {
	ids := r.files[f].holders.Append(nil)
	out := make([]string, len(ids))
	for i, n := range ids {
		out[i] = r.nodes[n]
	}
	slices.Sort(out)
	return out
}

// known returns the known files in name order.
func (r *Replicas) known() []int32 {
	var out []int32
	for f := range r.files {
		if r.files[f].known {
			out = append(out, int32(f))
		}
	}
	r.sortByName(out)
	return out
}

// dump writes the canonical replica-map section: every known file in name
// order with its holders.
func (r *Replicas) dump(b *strings.Builder) {
	b.WriteString("replicas:\n")
	for _, f := range r.known() {
		b.WriteString("  " + r.files[f].name + " -> [" + strings.Join(r.holders(f), " ") + "]\n")
	}
}

// Add, Has, UnderReplicated and DropNode are inert: the benchmark's probe
// names them (bench/probes.go:606, :619, :624, :626), so they stay until it
// speaks ids. Each does nothing and returns its zero value.

// Add does nothing (bench/probes.go:606).
func (r *Replicas) Add(file, node string) bool { return false }

// Has reports nothing (bench/probes.go:619).
func (r *Replicas) Has(file, node string) bool { return false }

// UnderReplicated returns nil (bench/probes.go:624).
func (r *Replicas) UnderReplicated(rf int) []string { return nil }

// DropNode does nothing (bench/probes.go:626).
func (r *Replicas) DropNode(node string) []string { return nil }
