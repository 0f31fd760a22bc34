package catalog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCatalogAddGet(t *testing.T) {
	c := New()
	if err := c.Add(FileMeta{Name: "a.img", Size: 10}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(FileMeta{Name: "b.img", Size: 20}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	m, ok := c.Get("b.img")
	if !ok || m.Size != 20 {
		t.Fatalf("Get(b.img) = %+v, %v", m, ok)
	}
	if _, ok := c.Get("zzz"); ok {
		t.Fatal("Get of missing file succeeded")
	}
	if i, ok := c.Index("b.img"); !ok || i != 1 {
		t.Fatalf("Index(b.img) = %d, %v", i, ok)
	}
	if _, ok := c.Index("zzz"); ok {
		t.Fatal("Index of missing file succeeded")
	}
	if n := totalSize(c); n != 30 {
		t.Fatalf("total size = %d", n)
	}
}

func TestCatalogRejectsBadMeta(t *testing.T) {
	c := New()
	if err := c.Add(FileMeta{Name: "", Size: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := c.Add(FileMeta{Name: "x", Size: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
	c.MustAdd(FileMeta{Name: "x", Size: 1})
	if err := c.Add(FileMeta{Name: "x", Size: 2}); err == nil {
		t.Fatal("duplicate accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd did not panic on duplicate")
		}
	}()
	c.MustAdd(FileMeta{Name: "x", Size: 2})
}

func TestCatalogSort(t *testing.T) {
	c := New()
	c.MustAdd(FileMeta{Name: "c", Size: 1})
	c.MustAdd(FileMeta{Name: "a", Size: 2})
	c.MustAdd(FileMeta{Name: "b", Size: 3})
	c.Sort()
	names := c.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("names not sorted: %v", names)
	}
	// Index map must follow the sort.
	m, ok := c.Get("a")
	if !ok || m.Size != 2 {
		t.Fatalf("Get(a) after sort = %+v, %v", m, ok)
	}
	if i, ok := c.Index("c"); !ok || i != 2 || c.Files()[i].Size != 1 {
		t.Fatalf("Index(c) after sort = %d, %v", i, ok)
	}
}

func TestMemSource(t *testing.T) {
	s := NewMemSource()
	s.Put("q.fasta", []byte("MKV"))
	s.Put("p.fasta", []byte("AA"))
	s.Put("q.fasta", []byte("MKVL")) // replace
	rc, err := s.Open("q.fasta")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "MKVL" {
		t.Fatalf("contents = %q", data)
	}
	if _, err := s.Open("missing"); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
	c, err := s.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	want := []string{"p.fasta", "q.fasta"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("catalog names = %v, want %v", names, want)
	}
	m, _ := c.Get("q.fasta")
	if m.Size != 4 {
		t.Fatalf("size = %d, want 4 (after replace)", m.Size)
	}
	if b, ok := s.Bytes("p.fasta"); !ok || string(b) != "AA" {
		t.Fatalf("Bytes = %q, %v", b, ok)
	}
}

// TestMemSourceCatalogCost pins what listing the source costs the master at
// the start of every job: over 8,192 files, the catalog's struct and its
// slice at its final size, and nothing else. The files are in name order, so
// the catalog needs no index, and nothing grows by doubling. The first
// Catalog after a Put also sorts the source's listing; the calls measured
// come after it.
func TestMemSourceCatalogCost(t *testing.T) {
	const files = 8192
	s := NewMemSource()
	for i := files - 1; i >= 0; i-- { // out of order: Catalog sorts
		s.Put(fmt.Sprintf("f%05d.dat", i), make([]byte, i%7))
	}
	c, err := s.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != files || !slices.IsSortedFunc(c.Files(), nameOrder) || c.Files()[6].Size != 6 {
		t.Fatalf("catalog of %d files, sorted %v", c.Len(), slices.IsSortedFunc(c.Files(), nameOrder))
	}
	if i, ok := c.Index("f04097.dat"); !ok || i != 4097 {
		t.Fatalf("Index(f04097.dat) = %d, %v", i, ok)
	}
	const mallocLimit = 2 // measured: 2
	a := testing.AllocsPerRun(20, func() { s.Catalog() })
	if a > mallocLimit {
		t.Fatalf("Catalog over %d files makes %.0f allocations, budget is %d", files, a, mallocLimit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, _ = s.Catalog()
	runtime.ReadMemStats(&after)
	final := float64(unsafe.Sizeof(*c)) + float64(cap(c.Files()))*float64(unsafe.Sizeof(FileMeta{}))
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Catalog over %d files: %.0f allocations, %.0f B (%.3f× its final %.0f B)", files, a, got, got/final, final)
	if got > 1.2*final {
		t.Fatalf("Catalog over %d files allocates %.0f B, %.2f× its final %.0f B", files, got, got/final, final)
	}
}

// TestCatalogRefusesDuplicatesInEitherOrder: a name already listed is
// refused whether it comes in name order or out of it, before and after the
// catalog needs an index, and also by a catalog a source built.
func TestCatalogRefusesDuplicatesInEitherOrder(t *testing.T) {
	c := New()
	for _, n := range []string{"b", "d", "f"} {
		c.MustAdd(FileMeta{Name: n})
	}
	for _, n := range []string{"f", "b", "d"} { // the last, then earlier ones
		if err := c.Add(FileMeta{Name: n}); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("sorted catalog: Add(%s) = %v, want ErrDuplicate", n, err)
		}
	}
	c.MustAdd(FileMeta{Name: "a", Size: 1}) // out of order: indexed from here
	for _, n := range []string{"a", "b", "f"} {
		if err := c.Add(FileMeta{Name: n}); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("indexed catalog: Add(%s) = %v, want ErrDuplicate", n, err)
		}
	}
	if got := c.Names(); !slices.Equal(got, []string{"b", "d", "f", "a"}) {
		t.Fatalf("names %v, want insertion order", got)
	}
	if i, ok := c.Index("a"); !ok || i != 3 {
		t.Fatalf("Index(a) = %d, %v", i, ok)
	}
	c.Sort()
	if i, ok := c.Index("a"); !ok || i != 0 {
		t.Fatalf("after Sort, Index(a) = %d, %v", i, ok)
	}
	if err := c.Add(FileMeta{Name: "d"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("sorted again: Add(d) = %v, want ErrDuplicate", err)
	}

	s := NewMemSource()
	s.Put("x", []byte("1"))
	s.Put("y", []byte("2"))
	s.Put("x", []byte("33")) // a replacement, not a second file
	sc, err := s.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 2 || sc.Files()[0].Size != 2 {
		t.Fatalf("source catalog %+v", sc.Files())
	}
	if err := sc.Add(FileMeta{Name: "x"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("source catalog: Add(x) = %v, want ErrDuplicate", err)
	}
}

// Catalog builds the source's listing on the first call after a Put: calls
// from several goroutines, beside Puts and Opens, each get a whole sorted
// catalog of the files put so far.
func TestMemSourceCatalogConcurrent(t *testing.T) {
	s := NewMemSource()
	for i := 0; i < 64; i++ {
		s.Put(fmt.Sprintf("f%03d", i), []byte("x"))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 {
					s.Put(fmt.Sprintf("f%03d", 64+i), []byte("y"))
				}
				c, err := s.Catalog()
				if err != nil {
					t.Error(err)
					return
				}
				if c.Len() < 64 || !slices.IsSortedFunc(c.Files(), nameOrder) {
					t.Errorf("catalog of %d files, sorted %v", c.Len(), slices.IsSortedFunc(c.Files(), nameOrder))
					return
				}
				if rc, err := s.Open(c.Files()[c.Len()-1].Name); err != nil {
					t.Error(err)
				} else {
					rc.Close()
				}
			}
		}()
	}
	wg.Wait()
}

// Without drops the named files, keeps the order and the lookups, and hands
// back the catalog itself when it holds none of them.
func TestCatalogWithout(t *testing.T) {
	for _, sorted := range []bool{true, false} {
		c := New()
		names := []string{"a", "b", "c", "d"}
		if !sorted {
			names = []string{"d", "b", "a", "c"}
		}
		for i, n := range names {
			c.MustAdd(FileMeta{Name: n, Size: int64(i)})
		}
		if c.Without([]string{"zz"}) != c || c.Without(nil) != c {
			t.Fatal("Without of no held name copied the catalog")
		}
		w := c.Without([]string{"b", "zz", "b", names[0]})
		want := slices.DeleteFunc(slices.Clone(names), func(n string) bool { return n == "b" || n == names[0] })
		if got := w.Names(); !slices.Equal(got, want) || c.Len() != 4 {
			t.Fatalf("sorted %v: Without gives %v, want %v", sorted, got, want)
		}
		if cap(w.Files()) != len(want) {
			t.Fatalf("sorted %v: Without built %d slots for %d files", sorted, cap(w.Files()), len(want))
		}
		for i, n := range want {
			if j, ok := w.Index(n); !ok || j != i {
				t.Fatalf("sorted %v: Index(%s) = %d, %v, want %d", sorted, n, j, ok, i)
			}
		}
		if _, ok := w.Index("b"); ok {
			t.Fatalf("sorted %v: a dropped file is still found", sorted)
		}
	}
}

func TestDirSource(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "set1")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.img"), []byte("1234"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "a.img"), []byte("12"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewDirSource(dir)
	c, err := s.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	rc, err := s.Open("set1/a.img")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "12" {
		t.Fatalf("contents = %q", data)
	}
}

func TestDirSourceRejectsEscapes(t *testing.T) {
	s := NewDirSource(t.TempDir())
	for _, bad := range []string{"../etc/passwd", "/etc/passwd", "a/../../x", ""} {
		if _, err := s.Open(bad); !errors.Is(err, ErrPathEscape) {
			t.Fatalf("Open(%q) = %v, want ErrPathEscape", bad, err)
		}
	}
}

// Names that start with dots but stay inside the root are files like any
// other: listed, and opened.
func TestDirSourceDotDotNames(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"..notes.txt", "...", "a.txt"} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := NewDirSource(root)
	c, err := s.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	for _, name := range []string{"..notes.txt", "..."} {
		rc, err := s.Open(name)
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		data, _ := io.ReadAll(rc)
		rc.Close()
		if string(data) != name {
			t.Fatalf("Open(%q) read %q", name, data)
		}
	}
}

func TestReplicas(t *testing.T) {
	r := newNamed([]string{"f1", "f2"}, []string{"w0", "w1"})
	const f1, f2, w0, w1 = 0, 1, 0, 1
	r.AddID(f1, w0)
	r.AddID(f1, w1)
	r.AddID(f2, w1)
	if !r.HasID(f1, w0) || r.HasID(f2, w0) {
		t.Fatal("HasID wrong")
	}
	if got, want := DumpReplicas(r), "replicas:\n  f1 -> [w0 w1]\n  f2 -> [w1]\n"; got != want {
		t.Fatalf("DumpReplicas = %q, want %q", got, want)
	}
	r.RemoveID(f1, w0)
	if r.HasID(f1, w0) {
		t.Fatal("RemoveID did not remove")
	}
	if lost := namesOf(r, r.DropNodeID(w1)); !slices.Equal(lost, []string{"f1", "f2"}) {
		t.Fatalf("DropNodeID lost = %v", lost)
	}
	if got, want := DumpReplicas(r), "replicas:\n  f1 -> []\n  f2 -> []\n"; got != want {
		t.Fatalf("after DropNodeID: DumpReplicas = %q, want %q", got, want)
	}
}

func TestReplicasRemoveEdgeCases(t *testing.T) {
	r := newNamed([]string{"f1", "f2"}, []string{"w0", "w1", "w2"})
	const f1, f2, w0, w1, w2 = 0, 1, 0, 1, 2
	r.AddID(f1, w0)

	// A file nobody holds and a node that holds nothing: both no-ops, state
	// intact, and the file stays unknown.
	r.RemoveID(f2, w0)
	r.RemoveID(f1, w1)
	if !r.HasID(f1, w0) || DumpReplicas(r) != "replicas:\n  f1 -> [w0]\n" {
		t.Fatalf("no-op RemoveID disturbed the map: %q", DumpReplicas(r))
	}

	// Removing the last replica leaves the file known with no holders.
	r.RemoveID(f1, w0)
	if got, want := DumpReplicas(r), "replicas:\n  f1 -> []\n"; r.HasID(f1, w0) || got != want {
		t.Fatalf("last replica not removed: DumpReplicas = %q", got)
	}
	// The file can be re-added afterwards.
	r.AddID(f1, w2)
	if got, want := DumpReplicas(r), "replicas:\n  f1 -> [w2]\n"; got != want {
		t.Fatalf("re-add after last-replica removal: DumpReplicas = %q, want %q", got, want)
	}
}

func TestReplicasDropNodeEdgeCases(t *testing.T) {
	r := newNamed([]string{"only", "shared"}, []string{"w0", "w1", "idle"})
	const only, shared, w0, w1, idle = 0, 1, 0, 1, 2

	// Dropping a node that holds nothing loses nothing.
	if lost := r.DropNodeID(idle); len(lost) != 0 {
		t.Fatalf("DropNodeID(idle) lost %v", lost)
	}

	// A failed node holding the only copy: the file is lost entirely and
	// reported, while replicated files keep their surviving holders.
	r.AddID(only, w0)
	r.AddID(shared, w0)
	r.AddID(shared, w1)
	if lost := namesOf(r, r.DropNodeID(w0)); !slices.Equal(lost, []string{"only", "shared"}) {
		t.Fatalf("DropNodeID lost = %v", lost)
	}
	if got, want := DumpReplicas(r), "replicas:\n  only -> []\n  shared -> [w1]\n"; got != want {
		t.Fatalf("after DropNodeID: DumpReplicas = %q, want %q", got, want)
	}

	// Dropping the same node twice is a no-op the second time.
	if lost := r.DropNodeID(w0); len(lost) != 0 {
		t.Fatalf("second DropNodeID lost %v", lost)
	}
}

func TestReplicasUnderReplicated(t *testing.T) {
	r := newNamed([]string{"f1", "f2", "f3"}, []string{"w0", "w1"})
	const f1, f2, f3, w0, w1 = 0, 1, 2, 0, 1
	r.AddID(f1, w0)
	r.AddID(f1, w1)
	r.AddID(f2, w0)
	r.AddID(f3, w1)

	if ur := under(r, 1); len(ur) != 0 {
		t.Fatalf("under(1) = %v, want none", ur)
	}
	if ur := under(r, 2); !slices.Equal(ur, []string{"f2", "f3"}) || r.UnderCount(2) != 2 {
		t.Fatalf("under(2) = %v, want [f2 f3]", ur)
	}
	// rf < 1 means no target: nothing is under it.
	if ur := under(r, 0); ur != nil || r.UnderCount(0) != 0 {
		t.Fatalf("under(0) = %v, want nil", ur)
	}

	// Drop-node race: w0 dies while holding the sole copy of f2. The file
	// has no holder left, but it must still be reported as under target —
	// a zero-replica file is the most under-replicated of all.
	if lost := namesOf(r, r.DropNodeID(w0)); !slices.Equal(lost, []string{"f1", "f2"}) {
		t.Fatalf("DropNodeID lost = %v", lost)
	}
	if ur := under(r, 1); !slices.Equal(ur, []string{"f2"}) {
		t.Fatalf("after drop, under(1) = %v, want [f2]", ur)
	}
	if ur := under(r, 2); !slices.Equal(ur, []string{"f1", "f2", "f3"}) {
		t.Fatalf("after drop, under(2) = %v, want [f1 f2 f3]", ur)
	}
	if r.CountID(f2) != 0 || r.CountID(f1) != 1 {
		t.Fatalf("CountID(f2)=%d CountID(f1)=%d", r.CountID(f2), r.CountID(f1))
	}

	// Repairing the zero-replica file takes it back off the list.
	r.AddID(f2, w1)
	if ur := under(r, 1); len(ur) != 0 {
		t.Fatalf("after repair, under(1) = %v, want none", ur)
	}

	// ForgetID removes a permanently-lost file from future scans entirely.
	r.DropNodeID(w1)
	r.ForgetID(f2)
	if ur := under(r, 1); !slices.Equal(ur, []string{"f1", "f3"}) {
		t.Fatalf("after ForgetID, under(1) = %v, want [f1 f3]", ur)
	}
}

func TestSeedChecksum(t *testing.T) {
	a := SeedChecksum("img00001.pgm", 7)
	if a == 0 {
		t.Fatal("checksum 0 is reserved for 'none recorded'")
	}
	if b := SeedChecksum("img00001.pgm", 7); b != a {
		t.Fatalf("not deterministic: %x vs %x", a, b)
	}
	if b := SeedChecksum("img00002.pgm", 7); b == a {
		t.Fatal("different names collided")
	}
	if b := SeedChecksum("img00001.pgm", 8); b == a {
		t.Fatal("different seeds collided")
	}
}

// totalSize sums the catalogue's file sizes.
func totalSize(c *Catalog) int64 {
	var n int64
	for _, f := range c.files {
		n += f.Size
	}
	return n
}

// Property: after adding n distinct files, Names has length n, preserves
// insertion order, and the files' sizes sum to the sizes added.
func TestCatalogInvariantProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		c := New()
		var want int64
		for i, s := range sizes {
			name := string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
			if err := c.Add(FileMeta{Name: name, Size: int64(s)}); err != nil {
				return len(sizes) > 26*100 // only duplicates would fail
			}
			want += int64(s)
		}
		return c.Len() == len(sizes) && totalSize(c) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
