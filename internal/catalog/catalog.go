// Package catalog provides file-metadata bookkeeping for FRIEDA: the list of
// input files the partition generator groups into per-task inputs, the data
// sources the master reads from, and the replica map that tracks which
// worker holds which file after distribution.
package catalog

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// FileMeta describes one input file.
type FileMeta struct {
	// Name is the file's catalog-unique name (relative path for directory
	// sources).
	Name string
	// Size is the file length in bytes.
	Size int64
	// Checksum is the file's end-to-end content checksum (0 = none
	// recorded). Simulated workloads seed it with SeedChecksum; real sources
	// would hash actual bytes. Transfers that verify on arrival compare
	// against it, which is what turns silent corruption into a detected,
	// re-fetchable event.
	Checksum uint64
}

// SeedChecksum derives a deterministic synthetic content checksum for a
// simulated file from its name and a workload seed (FNV-1a). Equal
// (name, seed) pairs always produce the same checksum, so seeded runs stay
// bit-identical.
func SeedChecksum(name string, seed int64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(seed>>(8*i)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	if h == 0 {
		h = offset64 // reserve 0 for "no checksum recorded"
	}
	return h
}

// Catalog is an ordered set of file metadata. Order matters: the paper's
// pairwise-adjacent grouping is defined on the sorted input list.
type Catalog struct {
	files  []FileMeta
	byName map[string]int
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{byName: make(map[string]int)}
}

// Add appends a file. Duplicate names are rejected. Failures are typed:
// errors.Is against ErrEmptyName, ErrNegativeSize or ErrDuplicate.
func (c *Catalog) Add(m FileMeta) error {
	if m.Name == "" {
		return newError(ErrEmptyName, "")
	}
	if m.Size < 0 {
		return newError(ErrNegativeSize, m.Name)
	}
	if _, dup := c.byName[m.Name]; dup {
		return newError(ErrDuplicate, m.Name)
	}
	c.byName[m.Name] = len(c.files)
	c.files = append(c.files, m)
	return nil
}

// MustAdd is Add for static test/experiment setup.
func (c *Catalog) MustAdd(m FileMeta) {
	if err := c.Add(m); err != nil {
		panic(err)
	}
}

// Len returns the number of files.
func (c *Catalog) Len() int { return len(c.files) }

// Files returns the files in insertion order. The slice is shared; callers
// must not mutate it.
func (c *Catalog) Files() []FileMeta { return c.files }

// Get returns the metadata for name.
func (c *Catalog) Get(name string) (FileMeta, bool) {
	i, ok := c.byName[name]
	if !ok {
		return FileMeta{}, false
	}
	return c.files[i], true
}

// Names returns the file names in insertion order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.files))
	for i, f := range c.files {
		out[i] = f.Name
	}
	return out
}

// TotalSize sums all file sizes.
func (c *Catalog) TotalSize() int64 {
	var n int64
	for _, f := range c.files {
		n += f.Size
	}
	return n
}

// Sort orders the catalog by name, the canonical order for adjacency-based
// groupings.
func (c *Catalog) Sort() {
	sort.Slice(c.files, func(i, j int) bool { return c.files[i].Name < c.files[j].Name })
	for i, f := range c.files {
		c.byName[f.Name] = i
	}
}

// Source supplies file contents to the master. Implementations must be safe
// for concurrent use: the real-time strategy reads many files at once.
type Source interface {
	// Open returns a reader for the named file.
	Open(name string) (io.ReadCloser, error)
	// Catalog lists the source's files.
	Catalog() (*Catalog, error)
}

// DirSource reads files from a directory tree, the way the paper's master
// consumed an input directory.
type DirSource struct {
	root string
}

// NewDirSource returns a source over the directory root.
func NewDirSource(root string) *DirSource { return &DirSource{root: root} }

// Open opens the named file under the root. Path escapes are rejected.
func (s *DirSource) Open(name string) (io.ReadCloser, error) {
	clean := filepath.Clean(name)
	if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return nil, newError(ErrPathEscape, name)
	}
	return os.Open(filepath.Join(s.root, clean))
}

// Catalog walks the root and lists regular files sorted by relative path.
func (s *DirSource) Catalog() (*Catalog, error) {
	c := New()
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		return c.Add(FileMeta{Name: filepath.ToSlash(rel), Size: info.Size()})
	})
	if err != nil {
		return nil, err
	}
	c.Sort()
	return c, nil
}

// MemSource is an in-memory source for tests, examples and synthetic
// workloads.
type MemSource struct {
	mu    sync.RWMutex
	files map[string][]byte
	order []string
}

// NewMemSource returns an empty in-memory source.
func NewMemSource() *MemSource {
	return &MemSource{files: make(map[string][]byte)}
}

// Put stores a file, replacing any previous contents under the same name.
// The source keeps data itself and hands it to readers and to Bytes: the
// caller must not modify it afterwards.
func (s *MemSource) Put(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.files[name]; !exists {
		s.order = append(s.order, name)
	}
	s.files[name] = data
}

// Open returns a reader over the stored bytes.
func (s *MemSource) Open(name string) (io.ReadCloser, error) {
	s.mu.RLock()
	data, ok := s.files[name]
	s.mu.RUnlock()
	if !ok {
		return nil, newError(ErrNotFound, name)
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Bytes returns the stored contents themselves, not a copy; callers must not
// modify them.
func (s *MemSource) Bytes(name string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.files[name]
	return data, ok
}

// Catalog lists stored files sorted by name.
func (s *MemSource) Catalog() (*Catalog, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := New()
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	for _, n := range names {
		c.MustAdd(FileMeta{Name: n, Size: int64(len(s.files[n]))})
	}
	return c, nil
}

// Replicas tracks which nodes hold a copy of each file — the master's view
// of data placement after distribution, and the basis for compute-to-data
// scheduling.
//
// It also maintains the under-replication index the repair scan walks:
// once a target replication factor is established (by the first
// UnderReplicated, UnderCount or WalkUnder call), under is exactly
// {f ∈ known : len(loc[f]) < target} in name order, and every mutator
// fixes the membership of the files it touches before releasing the write
// lock. A Replicas that is never asked (the real master's) has target 0
// and its mutators do no index work.
type Replicas struct {
	mu  sync.RWMutex
	loc map[string]holders // file -> the nodes holding it
	// known remembers every file ever registered, even after its last
	// holder vanished (loc entries are deleted when empty). Without it a
	// zero-replica file would be invisible to UnderReplicated — exactly the
	// file that most needs repair. A loc entry implies a known entry.
	known map[string]struct{}
	// target is the replication factor under is maintained for; 0 means
	// none established yet. One target at a time: asking for another
	// rebuilds the index (correct, but O(known) per switch).
	target int
	under  []string
}

// holders is the set of nodes holding one file; a loc entry has at least
// one. The first holder is kept inline, so a file with one replica costs no
// allocation of its own. A second holder moves the set into many, which
// keeps it from then on, however few holders are left, and keeps membership
// O(1) however many nodes hold the file.
type holders struct {
	one  string              // the only holder, while many is nil
	many map[string]struct{} // every holder, once there were two
}

func (h holders) has(node string) bool {
	if h.many == nil {
		return h.one == node
	}
	_, ok := h.many[node]
	return ok
}

func (h holders) len() int {
	if h.many == nil {
		return 1
	}
	return len(h.many)
}

// sorted returns the holders in name order.
func (h holders) sorted() []string {
	if h.many == nil {
		return []string{h.one}
	}
	out := make([]string, 0, len(h.many))
	for n := range h.many {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewReplicas returns an empty replica map.
func NewReplicas() *Replicas {
	return &Replicas{
		loc:   make(map[string]holders),
		known: make(map[string]struct{}),
	}
}

// countLocked returns the number of holders of file. Caller holds the lock.
func (r *Replicas) countLocked(file string) int {
	h, ok := r.loc[file]
	if !ok {
		return 0
	}
	return h.len()
}

// holdersLocked returns the holders of file in name order. Caller holds the
// lock.
func (r *Replicas) holdersLocked(file string) []string {
	h, ok := r.loc[file]
	if !ok {
		return []string{}
	}
	return h.sorted()
}

// enter and leave insert file into / delete it from the index. Caller holds
// the write lock and has checked that membership changed.
func (r *Replicas) enter(file string) {
	i, _ := slices.BinarySearch(r.under, file)
	r.under = slices.Insert(r.under, i, file)
}

func (r *Replicas) leave(file string) {
	i, _ := slices.BinarySearch(r.under, file)
	r.under = slices.Delete(r.under, i, i+1)
}

// index returns the under-target list for rf, building it by one full scan
// when rf is not the established target; rf < 1 is no target, so nothing is
// under it. Caller holds the write lock and must not let the slice outlive
// it.
func (r *Replicas) index(rf int) []string {
	if rf < 1 {
		return nil
	}
	if r.target != rf {
		r.target = rf
		r.under = r.under[:0]
		for file := range r.known {
			if r.countLocked(file) < rf {
				r.under = append(r.under, file)
			}
		}
		sort.Strings(r.under)
	}
	return r.under
}

// The mutators below compare a file's holder count with the target before
// and after the change; with no target established (0) both comparisons
// are false and the index is never touched.

// Add records that node holds file.
func (r *Replicas) Add(file, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.loc[file]
	if ok && h.has(node) {
		return
	}
	was := ok && h.len() < r.target
	switch {
	case !ok:
		h = holders{one: node}
		r.loc[file] = h
		if r.target > 0 {
			_, was = r.known[file] // known with no holder: a member
		}
		r.known[file] = struct{}{}
	case h.many == nil:
		h = holders{many: map[string]struct{}{h.one: {}, node: {}}}
		r.loc[file] = h
	default:
		h.many[node] = struct{}{}
	}
	if now := h.len() < r.target; now != was {
		if now {
			r.enter(file)
		} else {
			r.leave(file)
		}
	}
}

// Remove forgets one replica (e.g. the node failed).
func (r *Replicas) Remove(file, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.loc[file]; ok && h.has(node) {
		r.drop(file, h, node)
	}
}

// drop deletes node, one of h's, from file's holders. Caller holds the write
// lock.
func (r *Replicas) drop(file string, h holders, node string) {
	was := h.len() < r.target
	left := 0
	if h.many != nil {
		delete(h.many, node)
		left = len(h.many)
	}
	if left == 0 {
		delete(r.loc, file)
	}
	if !was && left < r.target {
		r.enter(file)
	}
}

// DropNode forgets every replica on the node and returns the files that
// lost a copy.
func (r *Replicas) DropNode(node string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lost []string
	for file, h := range r.loc {
		if h.has(node) {
			r.drop(file, h, node)
			lost = append(lost, file)
		}
	}
	sort.Strings(lost)
	return lost
}

// Holders returns the nodes holding file, sorted.
func (r *Replicas) Holders(file string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.holdersLocked(file)
}

// Has reports whether node holds file.
func (r *Replicas) Has(file, node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.loc[file]
	return ok && h.has(node)
}

// Count returns the number of live replicas of file.
func (r *Replicas) Count(file string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.countLocked(file)
}

// Forget removes file from the replica map entirely, including the known
// set — used when a file is declared permanently lost and should stop
// showing up in repair scans.
func (r *Replicas) Forget(file string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.target > 0 {
		if _, known := r.known[file]; known && r.countLocked(file) < r.target {
			r.leave(file)
		}
	}
	delete(r.loc, file)
	delete(r.known, file)
}

// Note marks file as known without recording a holder, so it shows up in
// UnderReplicated scans. An amnesiac master uses it to re-derive "someone
// must hold this" facts (evacuated files) it can no longer attribute to a
// node.
func (r *Replicas) Note(file string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.known[file]; known {
		return
	}
	r.known[file] = struct{}{}
	if r.target > 0 {
		r.enter(file) // newly known, so no holders
	}
}

// UnderReplicated returns, sorted, every known file with fewer than rf live
// replicas — including files whose replica count has dropped to zero (their
// loc entry is gone, but the known set remembers them). rf < 1 returns nil:
// no target means nothing is under target. The result is a copy of the
// index; the repair scan uses WalkUnder and gauges UnderCount instead.
func (r *Replicas) UnderReplicated(rf int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.index(rf)...)
}

// UnderCount returns len(UnderReplicated(rf)) without building the list.
func (r *Replicas) UnderCount(rf int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index(rf))
}

// WalkUnder calls fn for each file UnderReplicated(rf) would return, in
// name order and in place, until fn returns false. The lock is not held
// across fn, which may mutate the map — Forget the file it was handed or
// any other, Add, Remove: each step resumes at the first indexed name
// greater than the one just visited, so no name is skipped or repeated
// whatever fn removed or inserted.
func (r *Replicas) WalkUnder(rf int, fn func(file string) bool) {
	for file, i, ok := r.nextUnder(rf, -1, ""); ok; file, i, ok = r.nextUnder(rf, i, file) {
		if !fn(file) {
			return
		}
	}
}

// nextUnder is one WalkUnder step: the first indexed name greater than
// prev, and its position. i is where prev sat on the previous step (-1 to
// start the walk); it is only a hint, re-checked against the index as it
// is now.
func (r *Replicas) nextUnder(rf, i int, prev string) (string, int, bool) {
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
		if i, found = slices.BinarySearch(under, prev); found {
			i++
		}
	}
	if i >= len(under) {
		return "", i, false
	}
	return under[i], i, true
}
