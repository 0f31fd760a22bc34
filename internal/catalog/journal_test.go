package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// sampleRecords is a mixed workload exercising every op and every field
// shape (empty strings, large varints, unicode names).
func sampleRecords() []Record {
	return []Record{
		{Op: OpRegister, File: "a.img", A: 1 << 30, B: 0xdeadbeef},
		{Op: OpRegister, File: "b.img", A: 42, B: SeedChecksum("b.img", 7)},
		{Op: OpSeedChecksum, File: "a.img", B: SeedChecksum("a.img", 7)},
		{Op: OpReplicaAdd, File: "a.img", Node: "vm-1"},
		{Op: OpReplicaAdd, File: "a.img", Node: "vm-2"},
		{Op: OpReplicaAdd, File: "b.img", Node: "vm-2"},
		{Op: OpReplicaRemove, File: "a.img", Node: "vm-1"},
		{Op: OpEvacuate, File: "b.img"},
		{Op: OpDropNode, Node: "vm-2"},
		{Op: OpTaskDone, A: 0, B: 1},
		{Op: OpTaskDone, A: 1 << 40, B: 0},
		{Op: OpRegister, File: "üñïçødé/path.dat", A: 0, B: 0},
		{Op: OpLoss, File: "b.img"},
	}
}

// decodeAll parses an encoded log into records: those decoded before the
// first error, and that error.
func decodeAll(b []byte) ([]Record, error) {
	var recs []Record
	for off := 0; off < len(b); {
		rec, next, err := decodeOne(b, off)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, nil
}

func TestJournalRoundTrip(t *testing.T) {
	var j Journal
	want := sampleRecords()
	for _, r := range want {
		j.Append(r)
	}
	if j.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", j.Len(), len(want))
	}
	got, err := decodeAll(j.Bytes())
	if err != nil {
		t.Fatalf("decodeAll: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalTruncationTorture truncates the encoded journal at every byte
// offset. Decoding and Replay must never panic; any cut that does not land
// exactly on a record boundary must surface a typed ErrTruncated.
func TestJournalTruncationTorture(t *testing.T) {
	var j Journal
	boundaries := map[int]bool{0: true}
	for _, r := range sampleRecords() {
		j.Append(r)
		boundaries[len(j.Bytes())] = true
	}
	full := j.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		recs, err := decodeAll(full[:cut])
		if boundaries[cut] {
			if err != nil {
				t.Fatalf("cut %d on boundary: unexpected error %v", cut, err)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
		// The records before the torn tail must still decode.
		for i, r := range recs {
			if r != sampleRecords()[i] {
				t.Fatalf("cut %d: prefix record %d corrupted: %+v", cut, i, r)
			}
		}
		// Replay of the torn journal must also fail typed, never panic.
		if _, rerr := Replay(nil, full[:cut]); !errors.Is(rerr, ErrTruncated) {
			t.Fatalf("cut %d: Replay err = %v, want ErrTruncated", cut, rerr)
		}
	}
}

func TestJournalCorruptOp(t *testing.T) {
	var j Journal
	j.Append(Record{Op: OpRegister, File: "a", A: 1})
	bad := append([]byte(nil), j.Bytes()...)
	bad[0] = 0xee
	if _, err := decodeAll(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	bad[0] = 0
	if _, err := Replay(nil, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay err = %v, want ErrCorrupt", err)
	}
}

// TestReplayMatchesDirectApply replays a journal and checks the canonical
// dump equals the state built by applying the records directly — and that
// snapshot+compaction preserves it exactly.
func TestReplayMatchesDirectApply(t *testing.T) {
	live := NewState()
	var j Journal
	for _, r := range sampleRecords() {
		if err := live.Apply(r); err != nil {
			t.Fatalf("apply %+v: %v", r, err)
		}
		j.Append(r)
	}
	replayed, err := Replay(nil, j.Bytes())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got, want := replayed.CanonicalDump(), live.CanonicalDump(); got != want {
		t.Fatalf("replayed state diverges:\n--- replayed ---\n%s--- live ---\n%s", got, want)
	}

	// Compact, then append more mutations and replay from the snapshot.
	snap, err := Compact(nil, &j)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if j.Len() != 0 {
		t.Fatalf("journal not reset after compaction: %d records", j.Len())
	}
	more := []Record{
		{Op: OpReplicaAdd, File: "a.img", Node: "vm-9"},
		{Op: OpTaskDone, A: 2, B: 1},
	}
	for _, r := range more {
		if err := live.Apply(r); err != nil {
			t.Fatalf("apply %+v: %v", r, err)
		}
		j.Append(r)
	}
	replayed, err = Replay(snap, j.Bytes())
	if err != nil {
		t.Fatalf("Replay(snap, journal): %v", err)
	}
	if got, want := replayed.CanonicalDump(), live.CanonicalDump(); got != want {
		t.Fatalf("post-compaction replay diverges:\n--- replayed ---\n%s--- live ---\n%s", got, want)
	}
	if snap.Entries() == 0 || len(snap.buf) == 0 {
		t.Fatalf("snapshot empty: entries=%d size=%d", snap.Entries(), len(snap.buf))
	}
}

// TestSnapshotKeepsZeroReplicaFiles checks the under-replication edge: a
// file whose last holder vanished is still "known" and must survive the
// snapshot round-trip so post-recovery repair scans still see it.
func TestSnapshotKeepsZeroReplicaFiles(t *testing.T) {
	st := NewState()
	st.Apply(Record{Op: OpReplicaAdd, File: "ghost", Node: "vm-1"})
	st.Apply(Record{Op: OpReplicaRemove, File: "ghost", Node: "vm-1"})
	if got := under(st.Replicas(), 1); len(got) != 1 || got[0] != "ghost" {
		t.Fatalf("precondition: under = %v", got)
	}
	rt, err := Replay(st.Snapshot(), nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := under(rt.Replicas(), 1); len(got) != 1 || got[0] != "ghost" {
		t.Fatalf("after round-trip: under = %v", got)
	}
	if got, want := rt.CanonicalDump(), st.CanonicalDump(); got != want {
		t.Fatalf("dump diverges:\n%s\nvs\n%s", got, want)
	}
}

// lossThenAdd is a file declared lost and then staged again.
func lossThenAdd() []Record {
	return []Record{
		{Op: OpRegister, File: "f", A: 1},
		{Op: OpLoss, File: "f"},
		{Op: OpReplicaAdd, File: "f", Node: "n1"},
	}
}

// TestSnapshotKeepsHoldersAfterLoss checks that a file staged again after
// its loss keeps its new holder through a snapshot round-trip: the snapshot
// must replay the loss before the adds, not forget the holder after them.
func TestSnapshotKeepsHoldersAfterLoss(t *testing.T) {
	st := NewState()
	for _, r := range lossThenAdd() {
		if err := st.Apply(r); err != nil {
			t.Fatalf("apply %+v: %v", r, err)
		}
	}
	rt, err := Replay(st.Snapshot(), nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got, want := rt.CanonicalDump(), st.CanonicalDump(); got != want {
		t.Fatalf("dump diverges:\n%s\nvs\n%s", got, want)
	}
}

// edgeRecords are the corners of replay's name edge: files registered and
// first held out of name order, a replica of a file never registered, a
// node named (by a drop and a removal) before any of its files, a loss of a
// file nobody held, and a nameless holder.
func edgeRecords() [][]Record {
	return [][]Record{
		{
			{Op: OpRegister, File: "c.dat", A: 3},
			{Op: OpRegister, File: "a.dat", A: 1},
			{Op: OpRegister, File: "b.dat", A: 2},
			{Op: OpReplicaAdd, File: "c.dat", Node: "vm-2"},
			{Op: OpReplicaAdd, File: "a.dat", Node: "vm-2"},
			{Op: OpReplicaAdd, File: "b.dat", Node: "vm-1"},
			{Op: OpReplicaRemove, File: "c.dat", Node: "vm-2"},
		},
		{
			{Op: OpRegister, File: "m.dat", A: 1},
			{Op: OpReplicaAdd, File: "z.dat", Node: "vm-1"},
			{Op: OpReplicaAdd, File: "m.dat", Node: "vm-1"},
			{Op: OpLoss, File: "y.dat"},
		},
		{
			{Op: OpDropNode, Node: "vm-3"},
			{Op: OpReplicaRemove, File: "a.dat", Node: "vm-3"},
			{Op: OpReplicaAdd, File: "b.dat", Node: "vm-3"},
			{Op: OpReplicaAdd, File: "a.dat", Node: "vm-3"},
			{Op: OpReplicaAdd, File: "0.dat", Node: ""},
			{Op: OpDropNode, Node: "vm-3"},
		},
	}
}

// The journal's bytes, a snapshot's bytes and the canonical dump of the
// state replayed from sampleRecords and edgeRecords are pinned in
// testdata/replay.golden: how replay finds a replica-map id for a name
// must not show in any of them. The file was written by the replay whose
// replica map still looked names up itself.
func TestReplayOutputsArePinned(t *testing.T) {
	var j Journal
	recs := sampleRecords()
	for _, e := range edgeRecords() {
		recs = append(recs, e...)
	}
	for _, r := range recs {
		j.Append(r)
	}
	st, err := Replay(nil, j.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("journal %x\nsnapshot %x\n%s", j.Bytes(), st.Snapshot().buf, st.CanonicalDump())
	want, err := os.ReadFile("testdata/replay.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("replay outputs moved:\n%s\nwant\n%s", got, want)
	}
}

// FuzzReplay feeds Replay arbitrary bytes. It must return a typed error,
// or a state whose snapshot replays to the same canonical dump and whose
// repair scan walks in name order.
func FuzzReplay(f *testing.F) {
	var all Journal
	for _, r := range sampleRecords() { // one record of every op
		var one Journal
		one.Append(r)
		f.Add(one.Bytes())
		all.Append(r)
	}
	f.Add(all.Bytes())
	f.Add(all.Bytes()[:len(all.Bytes())-1]) // a truncated tail
	var lost Journal
	for _, r := range lossThenAdd() {
		lost.Append(r)
	}
	f.Add(lost.Bytes())
	f.Add([]byte{byte(opMax), 0, 0, 0, 0}) // an unknown op
	for _, recs := range edgeRecords() {
		var edge Journal
		for _, r := range recs {
			edge.Append(r)
		}
		f.Add(edge.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := Replay(nil, b)
		if err != nil {
			var ce *Error
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		rt, err := Replay(st.Snapshot(), nil)
		if err != nil {
			t.Fatalf("snapshot does not replay: %v", err)
		}
		if got, want := rt.CanonicalDump(), st.CanonicalDump(); got != want {
			t.Fatalf("snapshot replays to\n%s\nnot\n%s", got, want)
		}
		walk := walked(st.Replicas(), 1)
		for i := 1; i < len(walk); i++ {
			if walk[i-1] >= walk[i] {
				t.Fatalf("repair scan walks %q, not in name order", walk)
			}
		}
	})
}

func TestStateLedger(t *testing.T) {
	st := NewState()
	st.Apply(Record{Op: OpTaskDone, A: 3, B: 1})
	st.Apply(Record{Op: OpTaskDone, A: 5, B: 0})
	if ok, done := st.tasks[3]; !done || !ok {
		t.Fatalf("task 3: done=%v ok=%v", done, ok)
	}
	if ok, done := st.tasks[5]; !done || ok {
		t.Fatalf("task 5: done=%v ok=%v", done, ok)
	}
	if _, done := st.tasks[4]; done {
		t.Fatal("task 4 should not be in ledger")
	}
}

func TestTypedCatalogErrors(t *testing.T) {
	c := New()
	if err := c.Add(FileMeta{Name: ""}); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("empty name: %v", err)
	}
	if err := c.Add(FileMeta{Name: "x", Size: -1}); !errors.Is(err, ErrNegativeSize) {
		t.Fatalf("negative size: %v", err)
	}
	c.MustAdd(FileMeta{Name: "x", Size: 1})
	err := c.Add(FileMeta{Name: "x", Size: 1})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	// Message text stays the operator-facing historic form.
	if got := err.Error(); got != `catalog: duplicate file "x"` {
		t.Fatalf("message = %q", got)
	}
	var ce *Error
	if !errors.As(err, &ce) || !errors.Is(ce, ErrDuplicate) || ce.File != "x" {
		t.Fatalf("As(*Error) = %v, kind %v, file %q", errors.As(err, &ce), ce.Kind, ce.File)
	}

	s := NewMemSource()
	if _, err := s.Open("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mem open: %v", err)
	}
	d := NewDirSource(t.TempDir())
	if _, err := d.Open("../escape"); !errors.Is(err, ErrPathEscape) {
		t.Fatalf("dir escape: %v", err)
	}
	// Journal errors are typed too.
	if _, err := decodeAll([]byte{byte(OpRegister)}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trunc: %v", err)
	} else if !errors.As(err, &ce) || !errors.Is(ce, ErrTruncated) {
		t.Fatalf("trunc: %v is not a typed *Error of its kind", err)
	}
}

// BenchmarkJournalAppend measures the master's journaling hot path: one
// typed record per control-plane mutation into the growable log. Budget is
// ≤2 allocs/record; amortised buffer growth keeps it at ~0.
func BenchmarkJournalAppend(b *testing.B) {
	var j Journal
	rec := Record{Op: OpReplicaAdd, File: "blast/db.part-000017", Node: "vm-12345"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Append(rec)
	}
}

// BenchmarkJournalReplay measures recovery: decode+apply of a 10k-record
// journal into a fresh State (the restart cost the recovery model prices).
func BenchmarkJournalReplay(b *testing.B) {
	var j Journal
	for i := 0; i < 10_000; i++ {
		switch i % 4 {
		case 0:
			j.Append(Record{Op: OpReplicaAdd, File: "f" + string(rune('a'+i%26)), Node: "vm-1"})
		case 1:
			j.Append(Record{Op: OpReplicaAdd, File: "f" + string(rune('a'+i%26)), Node: "vm-2"})
		case 2:
			j.Append(Record{Op: OpReplicaRemove, File: "f" + string(rune('a'+i%26)), Node: "vm-1"})
		case 3:
			j.Append(Record{Op: OpTaskDone, A: uint64(i), B: 1})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(nil, j.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJournalAppendAllocBudget enforces the ≤2 allocs/record budget in the
// ordinary test run, mirroring the attrib edge-emission guard: the same
// append as BenchmarkJournalAppend, averaged over 10,000 records, which
// spreads the journal's growth as the benchmark's run does.
func TestJournalAppendAllocBudget(t *testing.T) {
	var j Journal
	rec := Record{Op: OpReplicaAdd, File: "blast/db.part-000017", Node: "vm-12345"}
	if a := testing.AllocsPerRun(10_000, func() { j.Append(rec) }); a > 2 {
		t.Fatalf("journal append costs %.0f allocs/record, budget is 2", a)
	}
}

// TestWriteBenchMasterfail regenerates BENCH_masterfail.json when
// BENCH_MASTERFAIL_OUT names the output path (wired to
// `make bench-masterfail`); otherwise it is a no-op.
func TestWriteBenchMasterfail(t *testing.T) {
	out := os.Getenv("BENCH_MASTERFAIL_OUT")
	if out == "" {
		t.Skip("set BENCH_MASTERFAIL_OUT to regenerate BENCH_masterfail.json")
	}
	type row struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
	}
	record := struct {
		Description string `json:"description"`
		Go          string `json:"go"`
		CPU         string `json:"cpu"`
		Rows        []row  `json:"rows"`
	}{
		Description: "catalog journal append (per-mutation hot path, target <=2 allocs/record) and recovery replay of a 10k-record journal",
		Go:          runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:         benchCPUModel(),
	}
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkJournalAppend", BenchmarkJournalAppend},
		{"BenchmarkJournalReplay", BenchmarkJournalReplay},
	} {
		res := testing.Benchmark(bm.fn)
		record.Rows = append(record.Rows, row{
			Name:        bm.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// benchCPUModel best-effort reads the processor model for bench records.
func benchCPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
