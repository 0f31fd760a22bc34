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
// Files and nodes are dense int32 ids. A caller that keeps its own ids
// registers each name once (RegisterFiles, RegisterNode) and from then on
// uses the id methods (AddID, HasID, ...): the simulator does. The string
// methods (Add, Has, Remove, DropNode, Forget, UnderReplicated) are the
// edge for journal replay (State.Apply) and the benchmark's probe: they
// intern or look up the names and forward to the same implementation.
// Names come back out in name order wherever order is observable:
// UnderReplicated, DropNode and DumpReplicas, and the id methods that walk
// (WalkUnderID, DropNodeID) keep name order too.
//
// It also maintains the under-replication index the repair scan walks:
// once a target replication factor is established (by the first
// UnderReplicated, UnderCount or WalkUnderID call), under is exactly
// {f known : holders(f) < target} in name order, and every mutator fixes
// the membership of the file it touches before releasing the write lock. A
// Replicas that is never asked has target 0 and its mutators do no index
// work.
type Replicas struct {
	mu sync.RWMutex
	// files is indexed by file id, nodes holds each node id's name. Each
	// name index is built on the first string lookup that needs it and kept
	// up from then on, so a caller that registers names and then speaks
	// only ids never pays for one. unordered is set once a file name did
	// not sort after every earlier one; until then id order is name order.
	files     []fileState
	fileIndex map[string]int32
	unordered bool
	nodes     []string
	nodeIndex map[string]int32
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
// invisible to UnderReplicated — exactly the file that most needs repair. A
// file with a holder is known.
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
		r.addFile(n)
	}
	return first
}

// RegisterNode gives name, not registered yet, the next node id.
func (r *Replicas) RegisterNode(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addNode(name)
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

// addFile and addNode register a name, not registered yet, as the next id.
// Caller holds the write lock.
func (r *Replicas) addFile(name string) int32 {
	id := int32(len(r.files))
	if id > 0 && name <= r.files[id-1].name {
		r.unordered = true
	}
	r.files = append(r.files, fileState{name: name})
	if r.fileIndex != nil {
		r.fileIndex[name] = id
	}
	return id
}

func (r *Replicas) addNode(name string) int32 {
	id := int32(len(r.nodes))
	r.nodes = append(r.nodes, name)
	if r.nodeIndex != nil {
		r.nodeIndex[name] = id
	}
	return id
}

// fileID and nodeID look a name up, building its index on first use.
// Caller holds the write lock.
func (r *Replicas) fileID(name string) (int32, bool) {
	if r.fileIndex == nil {
		r.fileIndex = make(map[string]int32, len(r.files))
		for i := range r.files {
			r.fileIndex[r.files[i].name] = int32(i)
		}
	}
	id, ok := r.fileIndex[name]
	return id, ok
}

func (r *Replicas) nodeID(name string) (int32, bool) {
	if r.nodeIndex == nil {
		r.nodeIndex = make(map[string]int32, len(r.nodes))
		for i, n := range r.nodes {
			r.nodeIndex[n] = int32(i)
		}
	}
	id, ok := r.nodeIndex[name]
	return id, ok
}

// file and node intern a name. Caller holds the write lock.
func (r *Replicas) file(name string) int32 {
	if id, ok := r.fileID(name); ok {
		return id
	}
	return r.addFile(name)
}

func (r *Replicas) node(name string) int32 {
	if id, ok := r.nodeID(name); ok {
		return id
	}
	return r.addNode(name)
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

// The id methods. Ids come from RegisterFiles and RegisterNode (or from the
// string edge's interning); an unregistered file id panics.

// AddID records that node holds file and reports whether that is new.
func (r *Replicas) AddID(file, node int32) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.add(file, node)
}

func (r *Replicas) add(f, n int32) bool {
	was := r.member(f)
	if !r.files[f].holders.Add(n) {
		return false
	}
	r.files[f].known = true
	r.fix(f, was)
	return true
}

// RemoveID forgets one replica (e.g. the node failed).
func (r *Replicas) RemoveID(file, node int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remove(file, node)
}

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
	return r.dropNode(node)
}

func (r *Replicas) dropNode(n int32) []int32 {
	var lost []int32
	for f := range r.files {
		if r.files[f].holders.Has(n) {
			r.remove(int32(f), n)
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
	r.forget(file)
}

func (r *Replicas) forget(f int32) {
	was := r.member(f)
	r.files[f].holders.Clear()
	r.files[f].known = false
	r.fix(f, was)
}

// NoteID marks file as known without recording a holder, so it shows up in
// UnderReplicated scans. An amnesiac master uses it to re-derive "someone
// must hold this" facts (evacuated files) it can no longer attribute to a
// node.
func (r *Replicas) NoteID(file int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.note(file)
}

func (r *Replicas) note(f int32) {
	if !r.files[f].known {
		r.files[f].known = true
		r.fix(f, false)
	}
}

// UnderCount returns len(UnderReplicated(rf)) without building the list.
func (r *Replicas) UnderCount(rf int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index(rf))
}

// WalkUnderID calls fn for each file UnderReplicated(rf) would return, in
// name order and in place, until fn returns false. The lock is not held
// across fn, which may mutate the map — Forget the file it was handed or
// any other, Add, Remove: each step resumes at the first indexed file that
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

// The string edge. Each method takes the write lock, since a lookup may
// build the name index, and forwards to the id implementation. A name the
// map has never seen is no file or node: queries about it answer empty and
// removals of it do nothing.

// Add records that node holds file and reports whether that is new.
func (r *Replicas) Add(file, node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.add(r.file(file), r.node(node))
}

// Remove forgets one replica (e.g. the node failed).
func (r *Replicas) Remove(file, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, n, ok := r.lookup(file, node); ok {
		r.remove(f, n)
	}
}

// lookup resolves a file and a node name. Caller holds the write lock.
func (r *Replicas) lookup(file, node string) (int32, int32, bool) {
	f, ok := r.fileID(file)
	if !ok {
		return 0, 0, false
	}
	n, ok := r.nodeID(node)
	return f, n, ok
}

// DropNode forgets every replica on the node and returns the files that
// lost a copy, sorted.
func (r *Replicas) DropNode(node string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodeID(node)
	if !ok {
		return nil
	}
	return r.fileNames(r.dropNode(n))
}

// fileNames maps file ids to names; nil for none.
func (r *Replicas) fileNames(ids []int32) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, f := range ids {
		out[i] = r.files[f].name
	}
	return out
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

// Has reports whether node holds file.
func (r *Replicas) Has(file, node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, n, ok := r.lookup(file, node)
	return ok && r.files[f].holders.Has(n)
}

// Forget removes file from the replica map entirely, as ForgetID does.
func (r *Replicas) Forget(file string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fileID(file); ok {
		r.forget(f)
	}
}

// UnderReplicated returns, sorted, every known file with fewer than rf live
// replicas — including files whose replica count has dropped to zero. rf < 1
// returns nil: no target means nothing is under target. The result is a
// copy of the index; the repair scan walks it (WalkUnderID) and gauges
// UnderCount instead.
func (r *Replicas) UnderReplicated(rf int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fileNames(r.index(rf))
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
