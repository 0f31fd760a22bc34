// Package core implements the FRIEDA framework itself: the control-plane
// controller, the execution-plane master and workers, and the protocol
// choreography between them (Figures 1–4 of the paper).
//
// The division of labour follows the paper exactly: the controller owns
// policy (strategy selection, membership, failure bookkeeping, elasticity);
// the master owns mechanism (partitioning the input list, moving file
// payloads, dispatching executions); workers are symmetric task farmers
// that receive data, run an unmodified program per input group, and report
// status. FRIEDA never modifies application code — programs are invoked
// through an execution-syntax template whose $inpN variables are bound to
// received file locations at run time.
package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// Task is one unit of work: a group of input files resident on the worker.
type Task struct {
	// GroupIndex is the partition generator's group number.
	GroupIndex int
	// Inputs are the group's file names in template order.
	Inputs []string
	// Store gives access to the received file contents.
	Store Store
	// outputs collects result files the program registers for return to
	// the master (nil unless the deployment enables output return).
	outputs *outputSet
	// missing names an input that is not on the worker: the task fails
	// without running.
	missing string
}

// AddOutput registers a result file for transfer back to the master after
// the task completes. Without output return configured (the paper's
// evaluation leaves results on the workers) the data is stored locally
// under the same name and nothing crosses the network.
func (t Task) AddOutput(name string, r io.Reader) error {
	n, err := t.Store.Put(name, r)
	if err != nil {
		return err
	}
	if t.outputs != nil {
		t.outputs.add(name, n)
	}
	return nil
}

// outputSet accumulates one task's registered outputs. Each executor slot
// has one, emptied for every task.
type outputSet struct {
	mu    sync.Mutex
	files []protocol.FileInfo
}

func (o *outputSet) add(name string, size int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.files = append(o.files, protocol.FileInfo{Name: name, Size: size})
}

// Program executes one task. Implementations must be safe for concurrent
// use: multicore workers run one instance per core.
type Program interface {
	// Run executes the program against the task's inputs and returns a
	// short output summary (bulk output stays on the worker, as in the
	// paper's evaluation).
	Run(ctx context.Context, task Task) (output string, err error)
}

// FuncProgram adapts a Go function to Program — the in-process analogue of
// an installed application binary, used by the library API and tests.
type FuncProgram func(ctx context.Context, task Task) (string, error)

// Run implements Program.
func (f FuncProgram) Run(ctx context.Context, task Task) (string, error) {
	return f(ctx, task)
}

// ExecProgram runs an external command built from FRIEDA's execution-syntax
// template: e.g. {"blastp", "-query", "$inp1", "-db", "nr"} has $inp1
// replaced with the local path of the task's first input. $inpN (1-based)
// and the aliases $input (= $inp1) are recognised anywhere in an argument.
type ExecProgram struct {
	// Template is the command and arguments with $inpN placeholders.
	Template []string
	// Dir is the working directory ("" = inherit).
	Dir string
	// Env appends to the inherited environment.
	Env []string
}

// Run implements Program.
func (p ExecProgram) Run(ctx context.Context, task Task) (string, error) {
	if len(p.Template) == 0 {
		return "", fmt.Errorf("core: empty execution template")
	}
	argv, err := BindTemplate(p.Template, task)
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir = p.Dir
	if len(p.Env) > 0 {
		cmd.Env = append(os.Environ(), p.Env...)
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err = cmd.Run()
	// Keep the summary bounded, on failure too: FRIEDA reports status, not
	// bulk output, and every summary rides the run's MASTER_DONE.
	const maxSummary = 4096
	s := out.String()
	if len(s) > maxSummary {
		s = s[:maxSummary]
	}
	if err != nil {
		return s, fmt.Errorf("core: %s: %w", argv[0], err)
	}
	return s, nil
}

// BindTemplate substitutes placeholders with local file paths from the
// task's store: $inpN (1-based) and $input (= $inp1) name the group's
// inputs positionally; ${name} names any stored file by catalog name —
// typically a common file such as the BLAST database
// (e.g. "-db ${nr.fasta}"). Unknown placeholders and out-of-range indices
// are errors; a template referencing $inp2 on a one-file group is a
// configuration bug the user needs to see.
func BindTemplate(template []string, task Task) ([]string, error) {
	paths := make([]string, len(task.Inputs))
	for i, name := range task.Inputs {
		p, ok := task.Store.Path(name)
		if !ok {
			return nil, fmt.Errorf("core: input %q has no local path (store %T)", name, task.Store)
		}
		paths[i] = p
	}
	argv := make([]string, len(template))
	for i, arg := range template {
		bound, err := bindArg(arg, paths, task.Store)
		if err != nil {
			return nil, err
		}
		argv[i] = bound
	}
	return argv, nil
}

// bindArg replaces every $inpN / $input / ${name} occurrence inside one
// argument.
func bindArg(arg string, paths []string, store Store) (string, error) {
	var b strings.Builder
	for {
		i := strings.IndexByte(arg, '$')
		if i < 0 {
			b.WriteString(arg)
			return b.String(), nil
		}
		b.WriteString(arg[:i])
		rest := arg[i+1:]
		switch {
		case strings.HasPrefix(rest, "{"):
			end := strings.IndexByte(rest, '}')
			if end < 0 {
				return "", fmt.Errorf("core: unterminated ${...} in %q", arg)
			}
			name := rest[1:end]
			if name == "" {
				return "", fmt.Errorf("core: empty ${} placeholder in %q", arg)
			}
			p, ok := store.Path(name)
			if !ok {
				return "", fmt.Errorf("core: ${%s} is not in the worker store (is it a common file?)", name)
			}
			b.WriteString(p)
			arg = rest[end+1:]
		case strings.HasPrefix(rest, "input"):
			if len(paths) < 1 {
				return "", fmt.Errorf("core: template uses $input but group is empty")
			}
			b.WriteString(paths[0])
			arg = rest[len("input"):]
		case strings.HasPrefix(rest, "inp"):
			numEnd := len("inp")
			for numEnd < len(rest) && rest[numEnd] >= '0' && rest[numEnd] <= '9' {
				numEnd++
			}
			if numEnd == len("inp") {
				return "", fmt.Errorf("core: malformed placeholder in %q", arg)
			}
			n, err := strconv.Atoi(rest[len("inp"):numEnd])
			if err != nil || n < 1 {
				return "", fmt.Errorf("core: bad input index in %q", arg)
			}
			if n > len(paths) {
				return "", fmt.Errorf("core: template uses $inp%d but group has %d file(s)", n, len(paths))
			}
			b.WriteString(paths[n-1])
			arg = rest[numEnd:]
		default:
			return "", fmt.Errorf("core: unknown placeholder in %q (want $inpN)", arg)
		}
	}
}

// Store is a worker's local file repository for received inputs.
type Store interface {
	// Put stores the full contents read from r under name, replacing any
	// existing entry, and returns the byte count.
	Put(name string, r io.Reader) (int64, error)
	// Reserve announces that name is about to be written from offset 0 by
	// in-order Appends totalling size bytes, and discards any previous
	// contents. The size is the sender's word: a store may allocate once
	// from it, and must stay correct when the Appends add up to less or
	// more. Appending without a reservation is allowed.
	Reserve(name string, size int64) error
	// Append adds a chunk at the given offset; chunks arrive in order per
	// file. A zero offset truncates/creates. The store copies data: the
	// caller may reuse it as soon as Append returns.
	Append(name string, offset int64, data []byte) error
	// Open reads a stored file. The caller closes the reader once and uses
	// it no more after Close: a store may hand it to the next Open.
	Open(name string) (io.ReadCloser, error)
	// Path returns a filesystem path for name when the store is
	// disk-backed; ok=false means the store is memory-only (usable with
	// FuncPrograms but not ExecPrograms).
	Path(name string) (string, bool)
	// Has reports whether name is stored.
	Has(name string) bool
	// Size returns the stored length of name, or -1.
	Size(name string) int64
}

// storeChunk lands one received TFileData chunk, read from c, in s. A file's
// first chunk announces its total size, which reaches the store before the
// first byte. A chunk that is the whole file goes into a MemStore in one
// step: as it is where Data is handed over (c does not copy), else copied
// into bytes the store carves for it. Every other chunk is reserved for and
// appended.
func storeChunk(s Store, c transport.Conn, m *protocol.Message) error {
	if mem, ok := s.(*MemStore); ok && m.Offset == 0 && m.Last && int64(len(m.Data)) == m.FileSize {
		if c.SendCopies() {
			mem.land(m.FileName, m.Data)
		} else {
			mem.keep(m.FileName, m.Data)
		}
		return nil
	}
	if m.Offset == 0 {
		if err := s.Reserve(m.FileName, m.FileSize); err != nil {
			return err
		}
	}
	return s.Append(m.FileName, m.Offset, m.Data)
}

// MemStore is an in-memory Store for library-mode workers and tests. Stored
// bytes are never modified in place: readers and Bytes share them, and so
// does the sender of a whole file handed over by the in-memory transport. A
// rewrite stores fresh bytes, so a file carved from a slab keeps its old
// bytes alive, after a rewrite, as long as any file of its slab is.
type MemStore struct {
	mu    sync.RWMutex
	files map[string][]byte
	// slabs are the unused tails of the slabs whole files are carved from:
	// the first takes files of at most smallFile bytes, the second larger
	// ones of at most largeFile.
	slabs [2][]byte
}

// NewMemStore returns an empty memory store.
func NewMemStore() *MemStore { return &MemStore{files: make(map[string][]byte)} }

// The slabs MemStore carves whole files from, and the largest file each
// takes. A file of at most 4 KiB comes from a 28 KiB slab, a small size
// class, where a 32 KiB slab would be a large object, allocated from the
// heap's lock and zeroed whole (alone, a 28 KiB slab cost less than half as
// much per byte as a 32 KiB one on a 2-vCPU Xeon). A file of up to 32 KiB
// comes from a 256 KiB slab: the size classes of 8, 16, 24 and 32 KiB hold
// one object per span, so a file of its own there refills the allocator's
// per-P cache from the shared heap every time. A larger file gets an
// allocation of its own.
const (
	smallSlab, smallFile = 28 << 10, 4 << 10
	largeSlab, largeFile = 256 << 10, 32 << 10
)

// maxReserve bounds what MemStore allocates on a sender's word alone; a
// larger file grows as its bytes arrive. maxExpect bounds, in the same way,
// the files its index is sized for.
const maxReserve, maxExpect = 1 << 30, 1 << 20

// Put implements Store. The buffer is sized from r when r tells its length
// (bytes.Reader, strings.Reader, bytes.Buffer, a stored file, or an
// io.LimitedReader over one of them): then it is carved (see carve) at
// exactly that size, and grows only if r yields more. r is read outside the
// store's lock.
func (s *MemStore) Put(name string, r io.Reader) (int64, error) {
	// io.ReadAll with a first size: the hint, or the 512 bytes ReadAll
	// starts with when there is none.
	var data []byte
	if size := sizeHint(r); size > 0 && size <= largeFile {
		s.mu.Lock()
		data = s.carve(int(size))[:0]
		s.mu.Unlock()
	} else {
		data = make([]byte, 0, max(size, 512))
	}
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if len(data) < cap(data) {
			continue
		}
		// Full: a one-byte read tells whether r is done before the buffer
		// grows. It borrows the buffer's last byte, as a probe of its own
		// would escape to the heap through r.Read.
		end := len(data) - 1
		kept := data[end]
		_, err = io.ReadAtLeast(r, data[end:], 1)
		extra := data[end]
		data[end] = kept
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		data = append(data, extra)
	}
	s.mu.Lock()
	s.files[name] = data
	s.mu.Unlock()
	return int64(len(data)), nil
}

// sizeHint is how many bytes r will yield when r can tell, and 0 otherwise.
func sizeHint(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case *io.LimitedReader:
		if inner, ok := v.R.(interface{ Len() int }); ok {
			return min(v.N, int64(inner.Len()))
		}
		// The limit alone is only an upper bound; trust a modest one.
		if v.N >= 0 && v.N <= DefaultChunkSize {
			return v.N
		}
	}
	return 0
}

// Reserve implements Store: the file is allocated once, at its announced
// size, and Append copies into it.
func (s *MemStore) Reserve(name string, size int64) error {
	if size < 0 {
		return fmt.Errorf("core: %q reserved with negative size %d", name, size)
	}
	s.mu.Lock()
	s.files[name] = make([]byte, 0, min(size, maxReserve))
	s.mu.Unlock()
	return nil
}

// expect sizes an empty store's index for n files, the inputs its worker was
// told at registration to expect, so that landing them never regrows it. A
// store that holds files already keeps its index.
func (s *MemStore) expect(n int) {
	s.mu.Lock()
	if n > 0 && len(s.files) == 0 {
		s.files = make(map[string][]byte, min(n, maxExpect))
	}
	s.mu.Unlock()
}

// keep stores data under name as it is, a whole file whose sender has handed
// it over. Its capacity is clipped, so no later Append writes into the
// sender's array.
func (s *MemStore) keep(name string, data []byte) {
	s.mu.Lock()
	s.files[name] = data[:len(data):len(data)]
	s.mu.Unlock()
}

// land stores a copy of data, a whole file, under name in one step, in bytes
// carved for it.
func (s *MemStore) land(name string, data []byte) {
	s.mu.Lock()
	b := s.carve(len(data))
	copy(b, data)
	s.files[name] = b
	s.mu.Unlock()
}

// carve returns n fresh bytes for a whole file whose size is known before its
// first byte, with s.mu held. A file of at most 32 KiB is cut from the
// smallest slab that takes it, a new slab when the tail is too short, and its
// capacity is clipped, so no later Append writes into its neighbour. A larger
// file gets an allocation of its own.
func (s *MemStore) carve(n int) []byte {
	i, size := 0, smallSlab
	switch {
	case n > largeFile:
		return make([]byte, n)
	case n > smallFile:
		i, size = 1, largeSlab
	}
	slab := s.slabs[i]
	if n > len(slab) {
		slab = make([]byte, size)
	}
	s.slabs[i] = slab[n:]
	return slab[:n:n]
}

// Append implements Store. Into a reservation it copies without allocating;
// past one, or without one, the file grows.
func (s *MemStore) Append(name string, offset int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.files[name]
	if offset == 0 && len(cur) > 0 {
		cur = nil // a rewrite; readers may hold the old bytes
	}
	if int64(len(cur)) != offset {
		return fmt.Errorf("core: out-of-order chunk for %q: have %d, offset %d", name, len(cur), offset)
	}
	s.files[name] = append(cur, data...)
	return nil
}

// memFile reads a stored file. It keeps bytes.Reader's Len, so a Put fed from
// a stored file (or a limited prefix of one) is sized exactly, and its
// WriteTo, so io.Copy from one needs no buffer.
type memFile struct {
	bytes.Reader
	closed bool
}

// memFiles holds the closed readers the next Opens reuse.
var memFiles = sync.Pool{New: func() any { return new(memFile) }}

// Close implements io.Closer: the reader lets go of the file's bytes and goes
// back to memFiles. A second Close does nothing.
func (f *memFile) Close() error {
	if !f.closed {
		f.closed = true
		f.Reset(nil)
		memFiles.Put(f)
	}
	return nil
}

// Open implements Store. It allocates nothing while closed readers are there
// to reuse.
func (s *MemStore) Open(name string) (io.ReadCloser, error) {
	s.mu.RLock()
	data, ok := s.files[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: %q not in store", name)
	}
	f := memFiles.Get().(*memFile)
	f.Reset(data)
	f.closed = false
	return f, nil
}

// Path implements Store; memory stores have no paths.
func (s *MemStore) Path(string) (string, bool) { return "", false }

// Has implements Store.
func (s *MemStore) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.files[name]
	return ok
}

// Size implements Store.
func (s *MemStore) Size(name string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if d, ok := s.files[name]; ok {
		return int64(len(d))
	}
	return -1
}

// Bytes returns the stored contents themselves, not a copy; callers must not
// modify them. The chunk sender reads a file through it when it can.
func (s *MemStore) Bytes(name string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.files[name]
	return d, ok
}

// DirStore is a disk-backed Store rooted at a directory — what a real
// worker VM uses so ExecPrograms can open the files.
type DirStore struct {
	root string
	mu   sync.Mutex
	// open holds the handle of every reserved file still being appended,
	// so a chunk costs one write. A file leaves it when its reserved size
	// has been written, when an append fails, or when it is started over.
	open map[string]*dirAppend
}

// dirAppend is one reserved file in flight.
type dirAppend struct {
	f             *os.File
	written, size int64
}

// NewDirStore creates (if needed) and wraps the root directory.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{root: root, open: make(map[string]*dirAppend)}, nil
}

// localPath maps a store name to a path under the root, rejecting escapes.
func (s *DirStore) localPath(name string) (string, error) {
	if !filepath.IsLocal(name) {
		return "", fmt.Errorf("core: store name %q escapes root", name)
	}
	return filepath.Join(s.root, name), nil
}

// create makes (or empties) the file for name, with its directories.
func (s *DirStore) create(name string) (*os.File, error) {
	p, err := s.localPath(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	return os.Create(p)
}

// Put implements Store.
func (s *DirStore) Put(name string, r io.Reader) (int64, error) {
	f, err := s.create(name)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// Reserve implements Store: it creates the file empty and keeps it open for
// the Appends to come. The size tells when the last of them has landed.
func (s *DirStore) Reserve(name string, size int64) error {
	if size < 0 {
		return fmt.Errorf("core: %q reserved with negative size %d", name, size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked(name) // started over: the old handle's close error is moot
	f, err := s.create(name)
	if err != nil {
		return err
	}
	if size == 0 {
		return f.Close()
	}
	s.open[name] = &dirAppend{f: f, size: size}
	return nil
}

// closeLocked ends the in-flight append of name, if there is one.
func (s *DirStore) closeLocked(name string) error {
	a, ok := s.open[name]
	if !ok {
		return nil
	}
	delete(s.open, name)
	return a.f.Close()
}

// Append implements Store. A reserved file takes the chunk on its open
// handle; any other is opened, checked, written and closed.
func (s *DirStore) Append(name string, offset int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.open[name]; ok && offset == a.written {
		_, err := a.f.WriteAt(data, offset)
		a.written += int64(len(data))
		if err != nil || a.written >= a.size {
			if cerr := s.closeLocked(name); err == nil {
				err = cerr
			}
		}
		return err
	}
	// Not the next chunk of a reservation: whatever was in flight is over,
	// and the check below speaks for the file as it is on disk.
	s.closeLocked(name)
	p, err := s.localPath(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	flags := os.O_CREATE | os.O_WRONLY
	if offset == 0 {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(p, flags, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if offset != 0 && info.Size() != offset {
		return fmt.Errorf("core: out-of-order chunk for %q: have %d, offset %d", name, info.Size(), offset)
	}
	_, err = f.WriteAt(data, offset)
	return err
}

// Open implements Store.
func (s *DirStore) Open(name string) (io.ReadCloser, error) {
	p, err := s.localPath(name)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

// Path implements Store.
func (s *DirStore) Path(name string) (string, bool) {
	p, err := s.localPath(name)
	if err != nil {
		return "", false
	}
	if _, err := os.Stat(p); err != nil {
		return "", false
	}
	return p, true
}

// Has implements Store.
func (s *DirStore) Has(name string) bool {
	_, ok := s.Path(name)
	return ok
}

// Size implements Store.
func (s *DirStore) Size(name string) int64 {
	p, err := s.localPath(name)
	if err != nil {
		return -1
	}
	info, err := os.Stat(p)
	if err != nil {
		return -1
	}
	return info.Size()
}
