package catalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// underOracle is UnderReplicated as it was before the index: scan the whole
// known map and sort. Kept as the reference the maintained index is
// compared against.
func underOracle(r *Replicas, rf int) []string {
	if rf < 1 {
		return nil
	}
	var out []string
	for _, f := range r.files {
		if f.known && f.holders.Len() < rf {
			out = append(out, f.name)
		}
	}
	sort.Strings(out)
	return out
}

func indexNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return out
}

// under names the files of the index at rf, in its order; nil for none.
func under(r *Replicas, rf int) []string {
	var out []string
	for _, f := range r.index(rf) {
		out = append(out, r.files[f].name)
	}
	return out
}

// walked names the files WalkUnderID visits at rf, in its order.
func walked(r *Replicas, rf int) []string {
	var out []string
	r.WalkUnderID(rf, func(f int32) bool { out = append(out, r.FileName(f)); return true })
	return out
}

// namesOf maps file ids to their names; nil for none.
func namesOf(r *Replicas, ids []int32) []string {
	var out []string
	for _, f := range ids {
		out = append(out, r.FileName(f))
	}
	return out
}

// newNamed returns a replica map that registered files and then nodes, each
// in the order given, so files[i] is file id i and nodes[i] node id i.
func newNamed(files, nodes []string) *Replicas {
	r := NewReplicas()
	r.RegisterFiles(files)
	for _, n := range nodes {
		r.RegisterNode(n)
	}
	return r
}

// indexHarness feeds one mutation sequence to four replica maps — one per
// fixed target rf ∈ {1,2,3}, each asked before any mutation so every step
// takes the incremental path, and one whose target switches mid-sequence so
// the rebuild path runs too — and to a journal the sequence can be replayed
// from. Every map registers files in the same shuffled order, so files[i]
// is id i everywhere and the index compares names, not ids; nodes[i] is
// node id i.
type indexHarness struct {
	t        *testing.T
	rng      *rand.Rand
	files    []string
	nodes    []string
	fixed    [3]*Replicas
	floating *Replicas
	floatRF  int
	journal  Journal
}

func newIndexHarness(t *testing.T, seed int64) *indexHarness {
	h := &indexHarness{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		files:   indexNames("f", 200),
		nodes:   indexNames("w", 8),
		floatRF: 2,
	}
	h.rng.Shuffle(len(h.files), func(i, j int) { h.files[i], h.files[j] = h.files[j], h.files[i] })
	h.floating = newNamed(h.files, h.nodes)
	for i := range h.fixed {
		h.fixed[i] = newNamed(h.files, h.nodes)
		if got := under(h.fixed[i], i+1); got != nil {
			t.Fatalf("empty map: under(%d) = %v", i+1, got)
		}
	}
	return h
}

func (h *indexHarness) each(fn func(*Replicas)) {
	for _, r := range h.fixed {
		fn(r)
	}
	fn(h.floating)
}

// mutate applies one random mutator everywhere and journals it.
func (h *indexHarness) mutate() {
	fi, ni := int32(h.rng.Intn(len(h.files))), int32(h.rng.Intn(len(h.nodes)))
	f, n := h.files[fi], h.nodes[ni]
	switch p := h.rng.Intn(100); {
	case p < 55:
		h.each(func(r *Replicas) { r.AddID(fi, ni) })
		h.journal.Append(Record{Op: OpReplicaAdd, File: f, Node: n})
	case p < 80:
		h.each(func(r *Replicas) { r.RemoveID(fi, ni) })
		h.journal.Append(Record{Op: OpReplicaRemove, File: f, Node: n})
	case p < 84:
		h.each(func(r *Replicas) { r.DropNodeID(ni) })
		h.journal.Append(Record{Op: OpDropNode, Node: n})
	case p < 92:
		h.each(func(r *Replicas) { r.ForgetID(fi) })
		h.journal.Append(Record{Op: OpLoss, File: f})
	default:
		h.each(func(r *Replicas) { r.NoteID(fi) })
		// The journal has no Note op; Snapshot's add+remove of a nameless
		// holder is the same state change.
		h.journal.Append(Record{Op: OpReplicaAdd, File: f})
		h.journal.Append(Record{Op: OpReplicaRemove, File: f})
	}
}

func (h *indexHarness) check(step int) {
	h.t.Helper()
	for i, r := range h.fixed {
		rf := i + 1
		got, want := under(r, rf), underOracle(r, rf)
		if !reflect.DeepEqual(got, want) {
			h.t.Fatalf("step %d rf %d: index %v, oracle %v", step, rf, got, want)
		}
		if n := r.UnderCount(rf); n != len(want) {
			h.t.Fatalf("step %d rf %d: UnderCount %d, oracle %d", step, rf, n, len(want))
		}
	}
	if h.rng.Intn(16) == 0 {
		h.floatRF = 1 + h.rng.Intn(3)
	}
	got, want := under(h.floating, h.floatRF), underOracle(h.floating, h.floatRF)
	if !reflect.DeepEqual(got, want) {
		h.t.Fatalf("step %d floating rf %d: index %v, oracle %v", step, h.floatRF, got, want)
	}
}

// walk runs WalkUnderID on r while the callback mutates every map: it forgets
// the file under the cursor, and removes or inserts files elsewhere in the
// index. Names come out ascending (none repeated), each was a member when
// visited, and none that stayed a member throughout was skipped.
func (h *indexHarness) walk(r *Replicas, rf int) {
	h.t.Helper()
	member := func() map[string]bool {
		m := make(map[string]bool)
		for _, f := range underOracle(r, rf) {
			m[f] = true
		}
		return m
	}
	stayed := member()
	var visited []string
	cut := false
	r.WalkUnderID(rf, func(id int32) bool {
		f := r.FileName(id)
		now := member()
		if !now[f] {
			h.t.Fatalf("walk rf %d visited %s, not under target", rf, f)
		}
		if k := len(visited); k > 0 && visited[k-1] >= f {
			h.t.Fatalf("walk rf %d out of order: %s after %s", rf, f, visited[k-1])
		}
		visited = append(visited, f)
		switch h.rng.Intn(4) {
		case 0:
			h.each(func(r *Replicas) { r.ForgetID(id) })
			h.journal.Append(Record{Op: OpLoss, File: f})
		case 1, 2:
			h.mutate()
			h.mutate()
		}
		now = member()
		for g := range stayed {
			if !now[g] {
				delete(stayed, g)
			}
		}
		cut = h.rng.Intn(64) == 0 // the scan's early exit, sometimes
		return !cut
	})
	seen := make(map[string]bool, len(visited))
	for _, f := range visited {
		seen[f] = true
	}
	for g := range stayed {
		if !seen[g] && (!cut || g < visited[len(visited)-1]) {
			h.t.Fatalf("walk rf %d skipped %s (visited %v)", rf, g, visited)
		}
	}
}

func TestUnderIndexMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		h := newIndexHarness(t, seed)
		for step := 0; step < 2500; step++ {
			h.mutate()
			h.check(step)
			if step%100 == 99 {
				rf := 1 + h.rng.Intn(3)
				h.walk(h.fixed[rf-1], rf)
				h.check(step)
			}
		}
		// A state replayed from the journal interns the names in the order
		// the records first use them, not the live maps' order, and must
		// index the same files as the live map.
		st, err := Replay(nil, h.journal.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for rf := 1; rf <= 3; rf++ {
			live := h.fixed[rf-1]
			if got, want := under(st.Replicas(), rf), under(live, rf); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d rf %d: replayed %v, live %v", seed, rf, got, want)
			}
		}
		if got, want := DumpReplicas(st.Replicas()), DumpReplicas(h.floating); got != want {
			t.Fatalf("seed %d: replayed replicas\n%s\nlive\n%s", seed, got, want)
		}
	}
}

// replicaModel is Replicas as it was before holder sets: a map of maps, no
// index. Every Replicas method is checked against it.
type replicaModel struct {
	loc   map[string]map[string]struct{}
	known map[string]struct{}
}

func newReplicaModel() *replicaModel {
	return &replicaModel{loc: map[string]map[string]struct{}{}, known: map[string]struct{}{}}
}

func (m *replicaModel) add(file, node string) {
	if m.loc[file] == nil {
		m.loc[file] = map[string]struct{}{}
	}
	m.loc[file][node] = struct{}{}
	m.known[file] = struct{}{}
}

func (m *replicaModel) remove(file, node string) {
	delete(m.loc[file], node)
	if len(m.loc[file]) == 0 {
		delete(m.loc, file)
	}
}

func (m *replicaModel) dropNode(node string) []string {
	var lost []string
	for file, set := range m.loc {
		if _, ok := set[node]; ok {
			m.remove(file, node)
			lost = append(lost, file)
		}
	}
	sort.Strings(lost)
	return lost
}

func (m *replicaModel) holders(file string) []string {
	out := []string{}
	for n := range m.loc[file] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (m *replicaModel) under(rf int) []string {
	if rf < 1 {
		return nil
	}
	out := []string{}
	for f := range m.known {
		if len(m.loc[f]) < rf {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

func (m *replicaModel) dump() string {
	known := make([]string, 0, len(m.known))
	for f := range m.known {
		known = append(known, f)
	}
	sort.Strings(known)
	var b strings.Builder
	b.WriteString("replicas:\n")
	for _, f := range known {
		fmt.Fprintf(&b, "  %s -> [%s]\n", f, strings.Join(m.holders(f), " "))
	}
	return b.String()
}

// checkModel compares every query of r, which registered files and nodes in
// order, with the model: HasID for every node, CountID, the walk at target
// rf and DumpReplicas (every known file's holders).
func checkModel(t *testing.T, step int, r *Replicas, m *replicaModel, rf int, files, nodes []string) {
	t.Helper()
	for i, f := range files {
		if got, want := r.CountID(int32(i)), len(m.loc[f]); got != want {
			t.Fatalf("step %d rf %d: CountID(%q) = %d, model %d", step, rf, f, got, want)
		}
		for ni, n := range nodes {
			_, want := m.loc[f][n]
			if got := r.HasID(int32(i), int32(ni)); got != want {
				t.Fatalf("step %d rf %d: HasID(%q, %q) = %v, model %v", step, rf, f, n, got, want)
			}
		}
	}
	if got, want := under(r, rf), m.under(rf); !reflect.DeepEqual(append([]string{}, got...), want) {
		t.Fatalf("step %d rf %d: under %q, model %q", step, rf, got, want)
	}
	if got, want := DumpReplicas(r), m.dump(); got != want {
		t.Fatalf("step %d rf %d: DumpReplicas\n%s\nmodel\n%s", step, rf, got, want)
	}
}

// TestReplicasMatchModel drives Replicas and the map-of-maps model through
// the same random mutations at each target, including the nameless holder
// the journal's snapshot uses for "known, no holders" and holders that leave
// and come back, and compares every query after every step.
func TestReplicasMatchModel(t *testing.T) {
	files := indexNames("f", 12)
	nodes := append([]string{""}, indexNames("w", 4)...)
	for rf := 1; rf <= 3; rf++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r, m := newNamed(files, nodes), newReplicaModel()
			r.UnderCount(rf) // the index is maintained from the first step
			for step := 0; step < 1500; step++ {
				fi, ni := int32(rng.Intn(len(files))), int32(rng.Intn(len(nodes)))
				f, n := files[fi], nodes[ni]
				switch p := rng.Intn(100); {
				case p < 45:
					r.AddID(fi, ni)
					m.add(f, n)
				case p < 75:
					r.RemoveID(fi, ni)
					m.remove(f, n)
				case p < 80:
					if got, want := namesOf(r, r.DropNodeID(ni)), m.dropNode(n); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d rf %d: DropNodeID(%q) = %q, model %q", step, rf, n, got, want)
					}
				case p < 87:
					r.ForgetID(fi)
					delete(m.loc, f)
					delete(m.known, f)
				case p < 92:
					r.NoteID(fi)
					m.known[f] = struct{}{}
				default:
					// A holder leaves and comes back.
					r.RemoveID(fi, ni)
					m.remove(f, n)
					checkModel(t, step, r, m, rf, files, nodes)
					r.AddID(fi, ni)
					m.add(f, n)
				}
				checkModel(t, step, r, m, rf, files, nodes)
			}
		}
	}

	// The journal's "known, no holders" round trip: a nameless holder added
	// and removed leaves the file known and under every target.
	r := newNamed([]string{"z"}, []string{"", "w0"})
	r.AddID(0, 0)
	if !r.HasID(0, 0) || r.CountID(0) != 1 || r.HasID(0, 1) {
		t.Fatalf(`after adding holder "": HasID %v, CountID %d`, r.HasID(0, 0), r.CountID(0))
	}
	r.RemoveID(0, 0)
	if r.HasID(0, 0) || r.CountID(0) != 0 || !reflect.DeepEqual(under(r, 1), []string{"z"}) {
		t.Fatalf(`after removing holder "": HasID %v, CountID %d, under %v`, r.HasID(0, 0), r.CountID(0), under(r, 1))
	}
}

// TestReplicasManyHolders holds one file on every one of 65,536 nodes — the
// common file of the largest scale cell — and checks membership and removal
// stay O(1) per holder: at O(holders) each, this would take minutes.
func TestReplicasManyHolders(t *testing.T) {
	const n = 65536
	nodes := indexNames("vm", n)
	sort.Strings(nodes) // vm10000 sorts before vm1001
	r := newNamed([]string{"db"}, nodes)
	const db = 0
	held := func(holders []string) string { return "replicas:\n  db -> [" + strings.Join(holders, " ") + "]\n" }
	r.UnderCount(3)
	for node := range int32(n) {
		r.AddID(db, node)
		r.AddID(db, node) // a second add of a holder changes nothing
	}
	if c := r.CountID(db); c != n {
		t.Fatalf("CountID = %d, want %d", c, n)
	}
	for node := range int32(n) {
		if !r.HasID(db, node) {
			t.Fatalf("HasID(db, %s) = false", nodes[node])
		}
	}
	if DumpReplicas(r) != held(nodes) {
		t.Fatal("DumpReplicas does not list every node as a holder, in name order")
	}
	for node := range int32(n - 2) {
		if node%2 == 0 {
			r.RemoveID(db, node)
		} else if lost := namesOf(r, r.DropNodeID(node)); !reflect.DeepEqual(lost, []string{"db"}) {
			t.Fatalf("DropNodeID(%s) = %v", nodes[node], lost)
		}
	}
	if got := DumpReplicas(r); got != held(nodes[n-2:]) || r.HasID(db, 0) {
		t.Fatalf("after removing all but two: DumpReplicas %q", got)
	}
	if got := under(r, 3); !reflect.DeepEqual(got, []string{"db"}) {
		t.Fatalf("under(3) = %v", got)
	}
	r.RemoveID(db, n-2)
	r.RemoveID(db, n-1)
	r.AddID(db, 0) // back from none: one holder again
	if got := DumpReplicas(r); got != held(nodes[:1]) {
		t.Fatalf("after emptying and one add: DumpReplicas %q", got)
	}
}

// TestUnderIndexWalkVisitsAll pins the walk's contract on the exact case
// the repair scan produces: every visited file is forgotten on the spot.
func TestUnderIndexWalkVisitsAll(t *testing.T) {
	r := NewReplicas()
	names := indexNames("f", 50)
	first := r.RegisterFiles(names)
	for i := range names {
		r.NoteID(first + int32(i))
	}
	var visited []string
	r.WalkUnderID(2, func(f int32) bool {
		visited = append(visited, r.FileName(f))
		r.ForgetID(f)
		return true
	})
	if !reflect.DeepEqual(visited, names) {
		t.Fatalf("visited %v", visited)
	}
	if n := r.UnderCount(2); n != 0 {
		t.Fatalf("%d files left after forgetting all", n)
	}
}

// BenchmarkReplicasChurn prices the index on the mutators: the same
// AddID/RemoveID pairs on the one-copy-short tenth of a durability cell's
// files, each crossing the RF-2 boundary (so every targeted mutation deletes
// from or inserts into the index), with and without a target established;
// under target 3 the same pairs never cross (every file stays a member),
// which prices a targeted mutation that leaves the index alone. Budget:
// targeted ≤ 2× untargeted. On a 2-vCPU Xeon (go1.24), median ns per pair
// of 5 runs: 28 untargeted, 30 non-crossing (1.1×, within budget), 202
// crossing (7.3×: over budget; the search and memmove of the sorted index,
// see DESIGN.md). With a lock per call the same box read 119, 115 and 303
// (2.5×): the lock was most of an untargeted pair, and the crossing pair's
// index work is what is left.
func BenchmarkReplicasChurn(b *testing.B) {
	for _, rf := range []int{0, 2, 3} {
		b.Run(fmt.Sprintf("target=%d/ids", rf), func(b *testing.B) {
			const vm1, vm2, vm3 = 0, 1, 2
			r := newNamed(indexNames("q", 4096), []string{"vm1", "vm2", "vm3"})
			var short []int32
			for f := range int32(4096) {
				r.AddID(f, vm1)
				if f%10 != 0 {
					r.AddID(f, vm2)
				} else {
					short = append(short, f)
				}
			}
			r.UnderCount(rf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 7) % len(short)
				r.AddID(short[k], vm3)
				r.RemoveID(short[k], vm3)
			}
		})
	}
}

// TestReplicasIDsMatchNames drives two replica maps through the same random
// mutations by id. One registered its files out of name order (odd seeds),
// so its index compares names rather than ids; its twin registered them in
// name order, so files[i] is its id i. Every query must agree between the
// two and with underOracle, in name order, the walk included: what the maps
// report follows the names, whatever ids they gave out.
func TestReplicasIDsMatchNames(t *testing.T) {
	files := indexNames("f", 24)
	nodes := append([]string{""}, indexNames("w", 6)...)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		order := slices.Clone(files)
		if seed%2 == 1 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		byIDs, twin := newNamed(order, nodes), newNamed(files, nodes)
		fid := make(map[string]int32, len(order))
		for i, f := range order {
			fid[f] = int32(i)
		}
		rf := 1 + rng.Intn(3)
		for step := 0; step < 800; step++ {
			if rng.Intn(50) == 0 {
				rf = 1 + rng.Intn(3) // a target switch rebuilds both indexes
			}
			byIDs.UnderCount(rf)
			twin.UnderCount(rf)
			fi, ni := int32(rng.Intn(len(files))), int32(rng.Intn(len(nodes)))
			f, n := files[fi], nodes[ni]
			switch p := rng.Intn(100); {
			case p < 45:
				if got, want := byIDs.AddID(fid[f], ni), twin.AddID(fi, ni); got != want {
					t.Fatalf("seed %d step %d: AddID(%q, %q) = %v, twin %v", seed, step, f, n, got, want)
				}
			case p < 75:
				byIDs.RemoveID(fid[f], ni)
				twin.RemoveID(fi, ni)
			case p < 80:
				if got, want := namesOf(byIDs, byIDs.DropNodeID(ni)), namesOf(twin, twin.DropNodeID(ni)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: DropNodeID(%q) = %q, twin %q", seed, step, n, got, want)
				}
			case p < 88:
				byIDs.ForgetID(fid[f])
				twin.ForgetID(fi)
			default:
				byIDs.NoteID(fid[f])
				twin.NoteID(fi)
			}
			for i, f := range files {
				if got, want := byIDs.CountID(fid[f]), twin.CountID(int32(i)); got != want {
					t.Fatalf("seed %d step %d: CountID(%q) = %d, twin %d", seed, step, f, got, want)
				}
				if got, want := byIDs.HasID(fid[f], ni), twin.HasID(int32(i), ni); got != want {
					t.Fatalf("seed %d step %d: HasID(%q, %q) = %v, twin %v", seed, step, f, n, got, want)
				}
			}
			want := underOracle(twin, rf)
			if got := underOracle(byIDs, rf); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d rf %d: oracles %q and %q", seed, step, rf, got, want)
			}
			if n := byIDs.UnderCount(rf); n != len(want) {
				t.Fatalf("seed %d step %d rf %d: UnderCount %d, oracle %d", seed, step, rf, n, len(want))
			}
			if got := under(byIDs, rf); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d rf %d: index %q, oracle %q", seed, step, rf, got, want)
			}
			if got, twinGot := walked(byIDs, rf), walked(twin, rf); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(twinGot, want) {
				t.Fatalf("seed %d step %d rf %d: walks %q and %q, oracle %q", seed, step, rf, got, twinGot, want)
			}
			if got, want := DumpReplicas(byIDs), DumpReplicas(twin); got != want {
				t.Fatalf("seed %d step %d: DumpReplicas\n%s\ntwin\n%s", seed, step, got, want)
			}
		}
	}
}
