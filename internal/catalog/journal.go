package catalog

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// This file is the control-plane recovery substrate: a write-ahead journal
// of every catalog mutation, a snapshot/compaction layer, and Replay, which
// reconstructs byte-identical state from (snapshot, journal). The simulated
// master journals through it (simrun master faults); a journaled restart of
// the real internal/core master would adopt the same record format.
//
// Format: each record is [op:1 byte][file len:uvarint][file bytes]
// [node len:uvarint][node bytes][A:uvarint][B:uvarint]. No framing beyond
// the lengths — a crash mid-append leaves a recognisably truncated tail,
// which Replay reports as a typed ErrTruncated instead of guessing.

// Op identifies a journal record type.
type Op uint8

// Journal record types — one per control-plane mutation.
const (
	// OpRegister records a file entering the catalog: File, A=size,
	// B=checksum.
	OpRegister Op = iota + 1
	// OpSeedChecksum records a checksum (re)recorded for File: B=checksum.
	OpSeedChecksum
	// OpReplicaAdd records that Node now holds File.
	OpReplicaAdd
	// OpReplicaRemove records that Node no longer holds File.
	OpReplicaRemove
	// OpDropNode records that every replica on Node was forgotten at once
	// (node death).
	OpDropNode
	// OpEvacuate records that File no longer has a master-source copy —
	// workers hold the only replicas.
	OpEvacuate
	// OpLoss records that File was declared permanently lost and forgotten.
	OpLoss
	// OpTaskDone is the job-ledger record: task A went terminal, B=1 for
	// success, B=0 for permanent failure.
	OpTaskDone
	opMax
)

var opNames = [opMax]string{
	OpRegister:      "register",
	OpSeedChecksum:  "seed-checksum",
	OpReplicaAdd:    "replica-add",
	OpReplicaRemove: "replica-remove",
	OpDropNode:      "drop-node",
	OpEvacuate:      "evacuate",
	OpLoss:          "loss",
	OpTaskDone:      "task-done",
}

// String names the op for dumps and errors.
func (o Op) String() string {
	if o > 0 && o < opMax {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one journal entry. The A/B fields are op-dependent (see the Op
// constants); unused fields are zero.
type Record struct {
	Op   Op
	File string
	Node string
	A    uint64
	B    uint64
}

// Journal is an append-only record log in a single growable buffer. Append
// is the master's hot path, so it allocates nothing beyond amortised buffer
// growth (budget ≤2 allocs/record, enforced by TestJournalAppendAllocBudget).
type Journal struct {
	buf []byte
	n   int
}

// Append writes one record to the log.
func (j *Journal) Append(rec Record) {
	b := j.buf
	b = append(b, byte(rec.Op))
	b = binary.AppendUvarint(b, uint64(len(rec.File)))
	b = append(b, rec.File...)
	b = binary.AppendUvarint(b, uint64(len(rec.Node)))
	b = append(b, rec.Node...)
	b = binary.AppendUvarint(b, rec.A)
	b = binary.AppendUvarint(b, rec.B)
	j.buf = b
	j.n++
}

// Len returns the number of records appended since the last Reset.
func (j *Journal) Len() int { return j.n }

// Bytes returns the encoded log. The slice is shared; callers must not
// mutate it.
func (j *Journal) Bytes() []byte { return j.buf }

// Reset empties the journal, retaining the buffer (used after compaction).
func (j *Journal) Reset() {
	j.buf = j.buf[:0]
	j.n = 0
}

// decodeOne decodes the record starting at off. It returns the record and
// the offset just past it, or a typed error: ErrTruncated when the buffer
// ends mid-record, ErrCorrupt when a field is impossible.
func decodeOne(b []byte, off int) (Record, int, error) {
	var rec Record
	if off >= len(b) {
		return rec, off, truncErr(off)
	}
	op := Op(b[off])
	if op == 0 || op >= opMax {
		return rec, off, corruptErr(off, fmt.Sprintf("unknown op %d", b[off]))
	}
	rec.Op = op
	off++
	var err error
	if rec.File, off, err = decodeString(b, off); err != nil {
		return rec, off, err
	}
	if rec.Node, off, err = decodeString(b, off); err != nil {
		return rec, off, err
	}
	if rec.A, off, err = decodeUvarint(b, off); err != nil {
		return rec, off, err
	}
	if rec.B, off, err = decodeUvarint(b, off); err != nil {
		return rec, off, err
	}
	return rec, off, nil
}

func decodeUvarint(b []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(b[off:])
	if n == 0 {
		return 0, off, truncErr(off)
	}
	if n < 0 {
		return 0, off, corruptErr(off, "uvarint overflow")
	}
	return v, off + n, nil
}

func decodeString(b []byte, off int) (string, int, error) {
	n, off, err := decodeUvarint(b, off)
	if err != nil {
		return "", off, err
	}
	if n > uint64(len(b)-off) {
		return "", off, truncErr(off)
	}
	return string(b[off : off+int(n)]), off + int(n), nil
}

func truncErr(off int) error {
	return &Error{Kind: ErrTruncated, Detail: fmt.Sprintf("record ends at byte %d", off)}
}

func corruptErr(off int, what string) error {
	return &Error{Kind: ErrCorrupt, Detail: fmt.Sprintf("%s at byte %d", what, off)}
}

// State is the journaled control-plane state: the file catalog with
// checksums, the replica map, the evacuated-file set and the task-completion
// ledger. Applying a journal to a State is how the master recovers.
type State struct {
	cat  *Catalog
	reps *Replicas
	evac map[string]struct{}
	lost map[string]struct{}
	// files and nodes are reps' ids for the names the records used: the
	// journal speaks names, the replica map ids.
	files, nodes map[string]int32
	// tasks maps task id -> terminal outcome (true = succeeded). Presence
	// is what matters for reconciliation: a task in the ledger must never
	// be dispatched again.
	tasks map[uint64]bool
}

// NewState returns an empty control-plane state.
func NewState() *State {
	return &State{
		cat:   New(),
		reps:  NewReplicas(),
		files: make(map[string]int32),
		nodes: make(map[string]int32),
		evac:  make(map[string]struct{}),
		lost:  make(map[string]struct{}),
		tasks: make(map[uint64]bool),
	}
}

// Replicas exposes the state's replica map.
func (s *State) Replicas() *Replicas { return s.reps }

// Apply mutates the state per one record; a replica record's names become
// replica-map ids here. Unknown ops are rejected with ErrCorrupt; a
// duplicate OpRegister surfaces the catalog's typed error.
func (s *State) Apply(rec Record) error {
	switch rec.Op {
	case OpRegister:
		return s.cat.Add(FileMeta{Name: rec.File, Size: int64(rec.A), Checksum: rec.B})
	case OpSeedChecksum:
		i, ok := s.cat.Index(rec.File)
		if !ok {
			return newError(ErrNotFound, rec.File)
		}
		s.cat.files[i].Checksum = rec.B
	case OpReplicaAdd:
		s.reps.AddID(s.file(rec.File), s.node(rec.Node))
	case OpReplicaRemove:
		f, fileSeen := s.files[rec.File]
		n, nodeSeen := s.nodes[rec.Node]
		if fileSeen && nodeSeen {
			s.reps.RemoveID(f, n)
		}
	case OpDropNode:
		if n, ok := s.nodes[rec.Node]; ok {
			s.reps.DropNodeID(n)
		}
	case OpEvacuate:
		s.evac[rec.File] = struct{}{}
	case OpLoss:
		if f, ok := s.files[rec.File]; ok {
			s.reps.ForgetID(f)
		}
		s.lost[rec.File] = struct{}{}
	case OpTaskDone:
		s.tasks[rec.A] = rec.B != 0
	default:
		return corruptErr(-1, fmt.Sprintf("unknown op %d", uint8(rec.Op)))
	}
	return nil
}

// file and node return the replica-map id of a name, registering the name
// on first sight. A name only a removal, a drop or a loss mentions is no
// replica, so those records look names up and do nothing for one unseen.
func (s *State) file(name string) int32 {
	id, ok := s.files[name]
	if !ok {
		id = s.reps.RegisterFiles([]string{name})
		s.files[name] = id
	}
	return id
}

func (s *State) node(name string) int32 {
	id, ok := s.nodes[name]
	if !ok {
		id = s.reps.RegisterNode(name)
		s.nodes[name] = id
	}
	return id
}

// Snapshot is a compacted encoding of a State: a record stream in canonical
// order that Replay treats exactly like a journal prefix.
type Snapshot struct {
	buf     []byte
	entries int
}

// Entries returns the number of records in the snapshot (it prices
// recovery replay alongside Journal.Len).
func (s *Snapshot) Entries() int { return s.entries }

// Snapshot encodes the state as a canonical record stream: registers in
// catalog order, then losses, replica adds, evacuations and ledger entries,
// each sorted. Losses come before the adds, as a loss forgets the file's
// holders: a file staged again after its loss keeps them. Replaying a
// snapshot into an empty State reproduces the state exactly.
func (s *State) Snapshot() *Snapshot {
	var j Journal
	for _, f := range s.cat.Files() {
		j.Append(Record{Op: OpRegister, File: f.Name, A: uint64(f.Size), B: f.Checksum})
	}
	for _, f := range sortedKeys(s.lost) {
		j.Append(Record{Op: OpLoss, File: f})
	}
	s.reps.mu.RLock()
	for _, f := range s.reps.knownLocked() {
		name := s.reps.files[f].name
		if s.reps.files[f].holders.Len() == 0 {
			// Zero-replica but still known: a bare add+remove round-trips
			// the "known, no holders" condition the repair scan depends on.
			j.Append(Record{Op: OpReplicaAdd, File: name, Node: ""})
			j.Append(Record{Op: OpReplicaRemove, File: name, Node: ""})
			continue
		}
		for _, n := range s.reps.holdersLocked(f) {
			j.Append(Record{Op: OpReplicaAdd, File: name, Node: n})
		}
	}
	s.reps.mu.RUnlock()
	for _, f := range sortedKeys(s.evac) {
		j.Append(Record{Op: OpEvacuate, File: f})
	}
	ids := make([]uint64, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		b := uint64(0)
		if s.tasks[id] {
			b = 1
		}
		j.Append(Record{Op: OpTaskDone, A: id, B: b})
	}
	return &Snapshot{buf: j.buf, entries: j.n}
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Replay reconstructs state from a snapshot plus the journal appended since
// it was taken. snap may be nil (cold start). Decoding errors are typed
// (ErrTruncated / ErrCorrupt); apply errors surface the catalog's own typed
// errors. Replay never panics on any input bytes.
func Replay(snap *Snapshot, journal []byte) (*State, error) {
	st := NewState()
	if snap != nil {
		if err := applyAll(st, snap.buf); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	if err := applyAll(st, journal); err != nil {
		return nil, err
	}
	return st, nil
}

func applyAll(st *State, b []byte) error {
	for off := 0; off < len(b); {
		rec, next, err := decodeOne(b, off)
		if err != nil {
			return err
		}
		if err := st.Apply(rec); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// Compact folds the journal into a fresh snapshot and resets the journal —
// the recovery-cost bound: replay work is at most one snapshot plus the
// records since.
func Compact(snap *Snapshot, j *Journal) (*Snapshot, error) {
	st, err := Replay(snap, j.Bytes())
	if err != nil {
		return snap, err
	}
	j.Reset()
	return st.Snapshot(), nil
}

// CanonicalDump renders the state as a deterministic text form — files with
// size and checksum, replica holders, evacuations, ledger — so two states
// can be byte-compared. This is the equality oracle for the replay property
// tests and the master's post-recovery assert.
func (s *State) CanonicalDump() string {
	var b strings.Builder
	b.WriteString("files:\n")
	names := append([]string(nil), s.cat.Names()...)
	sort.Strings(names)
	for _, n := range names {
		f, _ := s.cat.Get(n)
		fmt.Fprintf(&b, "  %s size=%d sum=%016x\n", f.Name, f.Size, f.Checksum)
	}
	s.reps.dump(&b)
	b.WriteString("evacuated:\n")
	for _, f := range sortedKeys(s.evac) {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	b.WriteString("lost:\n")
	for _, f := range sortedKeys(s.lost) {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	b.WriteString("ledger:\n")
	ids := make([]uint64, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		fmt.Fprintf(&b, "  task %d ok=%v\n", id, s.tasks[id])
	}
	return b.String()
}

// DumpReplicas renders just the replica-map portion of a live Replicas in
// the same canonical form CanonicalDump uses, so a live master view can be
// byte-compared against a replayed State without copying it into one.
func DumpReplicas(r *Replicas) string {
	var b strings.Builder
	r.dump(&b)
	return b.String()
}
