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
	files []FileMeta
	// byName indexes files once an Add put them out of name order. While
	// they are in it, as every source lists them, it is nil and lookups
	// search the files by halves: a sorted catalog is its slice alone.
	byName map[string]int
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{} }

// Add appends a file. Duplicate names are rejected. Failures are typed:
// errors.Is against ErrEmptyName, ErrNegativeSize or ErrDuplicate.
func (c *Catalog) Add(m FileMeta) error {
	if m.Name == "" {
		return newError(ErrEmptyName, "")
	}
	if m.Size < 0 {
		return newError(ErrNegativeSize, m.Name)
	}
	n := len(c.files)
	if c.byName == nil && (n == 0 || c.files[n-1].Name < m.Name) {
		c.files = append(c.files, m) // still in name order: no index
		return nil
	}
	if _, dup := c.Index(m.Name); dup {
		return newError(ErrDuplicate, m.Name)
	}
	if c.byName == nil {
		c.byName = make(map[string]int, n+1)
		for i, f := range c.files {
			c.byName[f.Name] = i
		}
	}
	c.byName[m.Name] = n
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
	i, ok := c.Index(name)
	if !ok {
		return FileMeta{}, false
	}
	return c.files[i], true
}

// Index returns name's position in Files.
func (c *Catalog) Index(name string) (int, bool) {
	if c.byName != nil {
		i, ok := c.byName[name]
		return i, ok
	}
	return slices.BinarySearchFunc(c.files, name, func(f FileMeta, name string) int { return strings.Compare(f.Name, name) })
}

// nameOrder orders two files by name.
func nameOrder(a, b FileMeta) int { return strings.Compare(a.Name, b.Name) }

// Names returns the file names in insertion order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.files))
	for i, f := range c.files {
		out[i] = f.Name
	}
	return out
}

// Without returns the catalog less the named files, in c's order, its slice
// built at its final size; names c does not hold are ignored. When c holds none of
// them it returns c itself, which its caller must then not modify either.
func (c *Catalog) Without(names []string) *Catalog {
	var drop []int
	for _, n := range names {
		if i, ok := c.Index(n); ok && !slices.Contains(drop, i) {
			drop = append(drop, i)
		}
	}
	if len(drop) == 0 {
		return c
	}
	out := &Catalog{files: make([]FileMeta, 0, len(c.files)-len(drop))}
	for i, f := range c.files {
		if !slices.Contains(drop, i) {
			out.MustAdd(f) // c's own files: named, sized and distinct
		}
	}
	return out
}

// Sort orders the catalog by name, the canonical order for adjacency-based
// groupings. In name order it needs no index.
func (c *Catalog) Sort() {
	slices.SortFunc(c.files, nameOrder)
	c.byName = nil
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
	if !filepath.IsLocal(name) {
		return nil, newError(ErrPathEscape, name)
	}
	return os.Open(filepath.Join(s.root, name))
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
	// listing is the files' metadata in name order, built by the first
	// Catalog after a Put (nil).
	listing []FileMeta
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
	s.files[name] = data
	s.listing = nil
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

// Catalog lists stored files sorted by name, built at its final size in
// one pass over a listing the source keeps until the next Put. In name
// order, the catalog needs no index (Catalog.byName).
func (s *MemSource) Catalog() (*Catalog, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listing == nil {
		s.listing = make([]FileMeta, 0, len(s.files))
		for name, data := range s.files {
			s.listing = append(s.listing, FileMeta{Name: name, Size: int64(len(data))})
		}
		slices.SortFunc(s.listing, nameOrder)
	}
	c := &Catalog{files: make([]FileMeta, 0, len(s.listing))}
	for _, f := range s.listing {
		if err := c.Add(f); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SizedSource lists files it holds no bytes of: enough for a simulated
// job, which charges sizes alone. Open finds no file.
type SizedSource struct {
	cat *Catalog
	err error
}

// NewSizedSource lists files in name order. An empty name, a negative size
// or a name given twice is Add's typed error, which Catalog returns.
func NewSizedSource(files []FileMeta) *SizedSource {
	s := &SizedSource{cat: &Catalog{files: make([]FileMeta, 0, len(files))}}
	for _, f := range slices.SortedFunc(slices.Values(files), nameOrder) {
		if s.err = s.cat.Add(f); s.err != nil {
			s.cat = nil
			break
		}
	}
	return s
}

// Catalog returns the listing, the same each call, or the error that
// refused it.
func (s *SizedSource) Catalog() (*Catalog, error) { return s.cat, s.err }

// Open reports ErrNotFound: the source has sizes, not bytes.
func (s *SizedSource) Open(name string) (io.ReadCloser, error) {
	return nil, newError(ErrNotFound, name)
}
