package catalog

import (
	"slices"
	"strings"
	"sync"
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
// file it touches before releasing the write lock. A Replicas that is
// never asked has target 0 and its mutators do no index work.
type Replicas struct {
	mu sync.RWMutex
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
	r.mu.Lock()
	defer r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes = append(r.nodes, name)
	return int32(len(r.nodes) - 1)
}

// ReserveNodes makes room for n more node registrations.
func (r *Replicas) ReserveNodes(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes = slices.Grow(r.nodes, n)
}

// FileName returns the name of file id.
func (r *Replicas) FileName(id int32) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.files[id].name
}

// Reset forgets every replica and every known file and drops the index
// target, keeping the ids: the map an amnesiac master restarts with.
func (r *Replicas) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
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
// membership before. Caller holds the write lock.
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
// under it. Caller holds the write lock and must not let the slice outlive
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
	r.mu.Lock()
	defer r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remove(file, node)
}

// remove is RemoveID under the write lock.
func (r *Replicas) remove(f, n int32) {
	was := r.member(f)
	if r.files[f].holders.Remove(n) {
		r.fix(f, was)
	}
}

// DropNodeID forgets every replica on the node and returns the files that
// lost a copy, in name order.
func (r *Replicas) DropNodeID(node int32) []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lost []int32
	for f := range r.files {
		if r.files[f].holders.Has(node) {
			r.remove(int32(f), node)
			lost = append(lost, int32(f))
		}
	}
	r.sortByName(lost)
	return lost
}

// HasID reports whether node holds file.
func (r *Replicas) HasID(file, node int32) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.files[file].holders.Has(node)
}

// CountID returns the number of live replicas of file.
func (r *Replicas) CountID(file int32) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.files[file].holders.Len()
}

// ForgetID removes file from the replica map entirely, including the known
// set — used when a file is declared permanently lost and should stop
// showing up in repair scans.
func (r *Replicas) ForgetID(file int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	was := r.member(file)
	r.files[file].holders.Clear()
	r.files[file].known = false
	r.fix(file, was)
}

// NoteID marks file as known without recording a holder, so it shows up in
// repair scans. An amnesiac master uses it to re-derive "someone must hold
// this" facts (evacuated files) it can no longer attribute to a node.
func (r *Replicas) NoteID(file int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.files[file].known {
		r.files[file].known = true
		r.fix(file, false)
	}
}

// UnderCount returns how many known files have fewer than rf live replicas,
// files with none included; rf < 1 is no target, so none is under it.
func (r *Replicas) UnderCount(rf int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index(rf))
}

// WalkUnderID calls fn for each file UnderCount(rf) counts, in name order
// and in place, until fn returns false. The lock is not held across fn,
// which may mutate the map — forget the file it was handed or any other,
// add, remove: each step resumes at the first indexed file that
// sorts after the one just visited, so none is skipped or repeated whatever
// fn removed or inserted.
func (r *Replicas) WalkUnderID(rf int, fn func(file int32) bool) {
	for f, i, ok := r.nextUnder(rf, -1, 0); ok; f, i, ok = r.nextUnder(rf, i, f) {
		if !fn(f) {
			return
		}
	}
}

// nextUnder is one walk step: the first indexed file after prev, and its
// position. i is where prev sat on the previous step (-1 to start the
// walk); it is only a hint, re-checked against the index as it is now.
func (r *Replicas) nextUnder(rf, i int, prev int32) (int32, int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	under := r.index(rf)
	switch {
	case i < 0:
		i = 0
	case i < len(under) && under[i] == prev:
		i++ // nothing before the cursor moved
	default:
		var found bool
		if i, found = r.underPos(prev); found {
			i++
		}
	}
	if i >= len(under) {
		return 0, i, false
	}
	return under[i], i, true
}

// holdersLocked returns the holders of f in name order. Caller holds the
// lock.
func (r *Replicas) holdersLocked(f int32) []string {
	ids := r.files[f].holders.Append(nil)
	out := make([]string, len(ids))
	for i, n := range ids {
		out[i] = r.nodes[n]
	}
	slices.Sort(out)
	return out
}

// knownLocked returns the known files in name order. Caller holds the
// lock.
func (r *Replicas) knownLocked() []int32 {
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
	r.mu.RLock()
	defer r.mu.RUnlock()
	b.WriteString("replicas:\n")
	for _, f := range r.knownLocked() {
		b.WriteString("  " + r.files[f].name + " -> [" + strings.Join(r.holdersLocked(f), " ") + "]\n")
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
