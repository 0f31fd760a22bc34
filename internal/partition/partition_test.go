package partition

import (
	"fmt"
	"testing"
	"testing/quick"

	"frieda/internal/catalog"
)

func makeCatalog(n int) *catalog.Catalog {
	c := catalog.New()
	for i := 0; i < n; i++ {
		c.MustAdd(catalog.FileMeta{Name: fmt.Sprintf("f%04d", i), Size: int64(100 + i)})
	}
	return c
}

func TestSingle(t *testing.T) {
	groups, err := Single{}.Generate(makeCatalog(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 5 {
		t.Fatalf("groups = %d, want 5", len(groups))
	}
	for i, g := range groups {
		if g.Index != i || len(g.Files) != 1 || g.Files[0].Name != fmt.Sprintf("f%04d", i) {
			t.Fatalf("group %d = %+v", i, g)
		}
	}
}

// The single groups are windows of the catalogue's own files (Files is
// read-only): an append to one group's Files must leave its neighbours and
// the catalogue unchanged, and the groups cost one allocation however many
// there are — the group list; over 8,192 files a copy of the files was
// 262 KB more per job.
func TestSingleGroupsDoNotAlias(t *testing.T) {
	c := makeCatalog(3)
	groups, err := Single{}.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if &groups[1].Files[0] != &c.Files()[1] {
		t.Fatal("group 1 is not a window of the catalogue's files")
	}
	groups[0].Files = append(groups[0].Files, catalog.FileMeta{Name: "extra", Size: 1})
	if g := groups[1].Files; len(g) != 1 || g[0].Name != "f0001" {
		t.Fatalf("group 1 = %+v after an append to group 0", g)
	}
	if f := c.Files(); len(f) != 3 || f[1].Name != "f0001" || f[1].Size != 101 {
		t.Fatalf("catalogue = %+v after an append to group 0", f)
	}
	big := makeCatalog(8192)
	if n := testing.AllocsPerRun(10, func() { Single{}.Generate(big) }); n > 1 {
		t.Fatalf("%v allocations for 8,192 groups, want 1", n)
	}
}

func TestOneToAll(t *testing.T) {
	groups, err := OneToAll{}.Generate(makeCatalog(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	for i, g := range groups {
		if g.Files[0].Name != "f0000" {
			t.Fatalf("group %d pivot = %s", i, g.Files[0].Name)
		}
		if g.Files[1].Name != fmt.Sprintf("f%04d", i+1) {
			t.Fatalf("group %d second = %s", i, g.Files[1].Name)
		}
	}
	if _, err := (OneToAll{}).Generate(makeCatalog(1)); err == nil {
		t.Fatal("one-to-all with 1 file accepted")
	}
}

func TestPairwiseAdjacent(t *testing.T) {
	groups, err := PairwiseAdjacent{}.Generate(makeCatalog(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	want := [][2]string{{"f0000", "f0001"}, {"f0002", "f0003"}, {"f0004", "f0005"}}
	for i, g := range groups {
		if g.Files[0].Name != want[i][0] || g.Files[1].Name != want[i][1] {
			t.Fatalf("group %d = %v", i, names(g))
		}
	}
	if _, err := (PairwiseAdjacent{}).Generate(makeCatalog(5)); err == nil {
		t.Fatal("odd file count accepted")
	}
	if _, err := (PairwiseAdjacent{}).Generate(makeCatalog(0)); err == nil {
		t.Fatal("empty catalog accepted")
	}
}

// The pairs are windows of the catalogue's own files, as the single groups
// are: an append to one pair must leave its neighbours and the catalogue
// unchanged, and the groups cost one allocation however many there are.
func TestPairwiseAdjacentGroupsDoNotAlias(t *testing.T) {
	c := makeCatalog(6)
	groups, err := PairwiseAdjacent{}.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if &groups[1].Files[0] != &c.Files()[2] {
		t.Fatal("pair 1 is not a window of the catalogue's files")
	}
	groups[0].Files = append(groups[0].Files, catalog.FileMeta{Name: "extra", Size: 1})
	if g := groups[1].Files; len(g) != 2 || g[0].Name != "f0002" || g[1].Name != "f0003" {
		t.Fatalf("group 1 = %+v after an append to group 0", g)
	}
	if f := c.Files(); len(f) != 6 || f[2].Name != "f0002" || f[2].Size != 102 {
		t.Fatalf("catalogue = %+v after an append to group 0", f)
	}
	big := makeCatalog(1250)
	if n := testing.AllocsPerRun(10, func() { PairwiseAdjacent{}.Generate(big) }); n > 1 {
		t.Fatalf("%v allocations for 625 pairs, want 1", n)
	}
}

func TestPairwiseAdjacentPaperScale(t *testing.T) {
	// The ALS evaluation: 1250 images -> 625 two-file tasks.
	groups, err := PairwiseAdjacent{}.Generate(makeCatalog(1250))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 625 {
		t.Fatalf("groups = %d, want 625", len(groups))
	}
}

func TestAllToAll(t *testing.T) {
	groups, err := AllToAll{}.Generate(makeCatalog(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("groups = %d, want C(5,2)=10", len(groups))
	}
	seen := map[string]bool{}
	for _, g := range groups {
		key := g.Files[0].Name + "|" + g.Files[1].Name
		if seen[key] {
			t.Fatalf("duplicate pair %s", key)
		}
		seen[key] = true
		if g.Files[0].Name >= g.Files[1].Name {
			t.Fatalf("unordered pair %v", names(g))
		}
	}
}

func TestSlidingWindow(t *testing.T) {
	groups, err := SlidingWindow{}.Generate(makeCatalog(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	for i, g := range groups {
		if g.Files[0].Name != fmt.Sprintf("f%04d", i) || g.Files[1].Name != fmt.Sprintf("f%04d", i+1) {
			t.Fatalf("group %d = %v", i, names(g))
		}
	}
}

func TestGroupSizeAndNames(t *testing.T) {
	c := catalog.New()
	c.MustAdd(catalog.FileMeta{Name: "a", Size: 7})
	c.MustAdd(catalog.FileMeta{Name: "b", Size: 11})
	groups, _ := PairwiseAdjacent{}.Generate(c)
	if groups[0].Size() != 18 {
		t.Fatalf("Size = %d", groups[0].Size())
	}
	names := names(groups[0])
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"single", "", "one-to-all", "pairwise-adjacent", "all-to-all", "sliding-window"} {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if name != "" && g.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, g.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("bogus name accepted")
	}
}

// Property: every generator covers each input file at least once (for
// schemes defined on the full list) and assigns consecutive group indices.
func TestGeneratorIndicesProperty(t *testing.T) {
	gens := []Generator{Single{}, OneToAll{}, PairwiseAdjacent{}, AllToAll{}, SlidingWindow{}}
	prop := func(nRaw uint8) bool {
		n := int(nRaw%40)*2 + 2 // even, >= 2
		c := makeCatalog(n)
		for _, g := range gens {
			groups, err := g.Generate(c)
			if err != nil {
				return false
			}
			covered := map[string]bool{}
			for i, grp := range groups {
				if grp.Index != i {
					return false
				}
				if len(grp.Files) == 0 {
					return false
				}
				for _, f := range grp.Files {
					covered[f.Name] = true
				}
			}
			if len(covered) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// groupCounts returns how many groups each worker of a received.
func groupCounts(a Assignment) []int {
	out := make([]int, a.Workers)
	for _, w := range a.Owner {
		out[w]++
	}
	return out
}

// validate checks that a is complete over groups and in range.
func validate(a Assignment, groups int) error {
	if a.Workers <= 0 {
		return fmt.Errorf("assignment with %d workers", a.Workers)
	}
	if len(a.Owner) != groups {
		return fmt.Errorf("assignment covers %d of %d groups", len(a.Owner), groups)
	}
	for g, w := range a.Owner {
		if w < 0 || w >= a.Workers {
			return fmt.Errorf("group %d assigned to out-of-range worker %d", g, w)
		}
	}
	return nil
}

// names returns g's file names in group order.
func names(g Group) []string {
	out := make([]string, len(g.Files))
	for i, f := range g.Files {
		out[i] = f.Name
	}
	return out
}

func TestRoundRobinAssign(t *testing.T) {
	groups, _ := Single{}.Generate(makeCatalog(10))
	a, err := RoundRobin{}.Assign(groups, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(a, 10); err != nil {
		t.Fatal(err)
	}
	counts := groupCounts(a)
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	if a.Owner[4] != 1 {
		t.Fatalf("group 4 owner = %d, want 1", a.Owner[4])
	}
}

func TestBlockedAssign(t *testing.T) {
	groups, _ := Single{}.Generate(makeCatalog(10))
	a, err := Blocked{}.Assign(groups, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(a, 10); err != nil {
		t.Fatal(err)
	}
	// Contiguity: owners must be non-decreasing.
	for i := 1; i < len(a.Owner); i++ {
		if a.Owner[i] < a.Owner[i-1] {
			t.Fatalf("blocked assignment not contiguous: %v", a.Owner)
		}
	}
	counts := groupCounts(a)
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestSizeBalancedAssign(t *testing.T) {
	// One huge group plus many small: LPT must not overload one worker.
	c := catalog.New()
	c.MustAdd(catalog.FileMeta{Name: "huge", Size: 1000})
	for i := 0; i < 9; i++ {
		c.MustAdd(catalog.FileMeta{Name: fmt.Sprintf("s%d", i), Size: 100})
	}
	groups, _ := Single{}.Generate(c)
	a, err := SizeBalanced{}.Assign(groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	per := a.PerWorker()
	load := func(ids []int) int64 {
		var n int64
		for _, id := range ids {
			n += groups[id].Size()
		}
		return n
	}
	l0, l1 := load(per[0]), load(per[1])
	// Huge (1000) on one side, all nine smalls (900) on the other.
	if l0+l1 != 1900 {
		t.Fatalf("loads %d+%d != 1900", l0, l1)
	}
	if max64(l0, l1) > 1000 {
		t.Fatalf("LPT produced load %d > 1000", max64(l0, l1))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestAssignRejectsBadWorkerCount(t *testing.T) {
	groups, _ := Single{}.Generate(makeCatalog(4))
	for _, as := range []Assigner{RoundRobin{}, Blocked{}, SizeBalanced{}} {
		if _, err := as.Assign(groups, 0); err == nil {
			t.Fatalf("%s accepted 0 workers", as.Name())
		}
	}
}

// The oracle the assigner tests use refuses what is out of range or
// incomplete: an oracle that accepted everything would prove nothing.
func TestAssignmentValidate(t *testing.T) {
	a := Assignment{Workers: 2, Owner: []int{0, 1, 5}}
	if validate(a, 3) == nil {
		t.Fatal("out-of-range owner accepted")
	}
	a = Assignment{Workers: 2, Owner: []int{0}}
	if validate(a, 3) == nil {
		t.Fatal("short owner list accepted")
	}
	a = Assignment{Workers: 0, Owner: nil}
	if validate(a, 0) == nil {
		t.Fatal("zero workers accepted")
	}
}

// Property: all assigners produce complete, in-range assignments whose
// per-worker group counts differ by at most 1 for equal-size groups
// (round-robin and blocked).
func TestAssignerBalanceProperty(t *testing.T) {
	prop := func(nRaw, wRaw uint8) bool {
		n := int(nRaw%100) + 1
		w := int(wRaw%8) + 1
		groups, _ := Single{}.Generate(makeCatalog(n))
		for _, as := range []Assigner{RoundRobin{}, Blocked{}} {
			a, err := as.Assign(groups, w)
			if err != nil || validate(a, n) != nil {
				return false
			}
			counts := groupCounts(a)
			lo, hi := counts[0], counts[0]
			for _, c := range counts {
				if c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
			if hi-lo > 1 {
				return false
			}
		}
		// SizeBalanced needs only completeness here.
		a, err := (SizeBalanced{}).Assign(groups, w)
		return err == nil && validate(a, n) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
