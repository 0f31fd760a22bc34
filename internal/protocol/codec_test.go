package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"frieda/internal/strategy"
)

// allTypes lists every valid message type.
func allTypes() []Type {
	var ts []Type
	for t := TStartMaster; t <= TMasterDone; t++ {
		ts = append(ts, t)
	}
	return ts
}

// sample builds a message of type t from rng: the data-frame fields for
// TFileData; otherwise every other Message field, each left zero one time in
// four so that both sides of every presence bit are exercised. Strings are
// sometimes arbitrary bytes or multi-byte text and integers sometimes span
// their whole range (math.MinInt, math.MaxInt, any 64-bit value), so the
// varints and length prefixes meet their extremes.
func sample(t Type, rng *rand.Rand) *Message {
	word := func() string {
		switch rng.Intn(4) {
		case 0:
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			return string(b)
		case 1:
			return fmt.Sprintf("запрос-%d-データ", rng.Intn(1000))
		default:
			return fmt.Sprintf("file-%d.dat", rng.Intn(1000))
		}
	}
	wide := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return []int64{math.MinInt64, math.MaxInt64, -1, 1}[rng.Intn(4)]
		case 1:
			return int64(rng.Uint64())
		default:
			return rng.Int63n(1<<20) - 1<<10 // negative ones too
		}
	}
	if t == TFileData {
		m := &Message{
			Type: t, FileName: word(), Worker: word(),
			Offset: rng.Int63(), FileSize: rng.Int63(),
			Last: rng.Intn(2) == 0, Seq: rng.Uint64(),
		}
		if n := rng.Intn(3000); n > 0 {
			m.Data = make([]byte, n)
			rng.Read(m.Data)
		}
		return m
	}
	some := func() bool { return rng.Intn(4) > 0 }
	str := func() string {
		if !some() {
			return ""
		}
		return word()
	}
	num := func() int {
		if !some() {
			return 0
		}
		return int(wide())
	}
	float := func() float64 {
		if !some() {
			return 0
		}
		if rng.Intn(4) == 0 {
			return []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(4)]
		}
		return rng.NormFloat64()
	}
	strs := func() []string {
		var ss []string
		for i := rng.Intn(4); i > 0; i-- {
			ss = append(ss, word())
		}
		return ss
	}
	files := func() []FileInfo {
		var fs []FileInfo
		for i := rng.Intn(4); i > 0; i-- {
			fs = append(fs, FileInfo{Name: str(), Size: wide()})
		}
		return fs
	}
	result := func() TaskResult {
		return TaskResult{GroupIndex: num(), Worker: str(), OK: some(), Error: str(), DurationSec: float(), Output: str()}
	}
	m := &Message{
		Type: t, Worker: str(), Cores: num(), ReturnOutputs: some(), ExpectFiles: num(),
		Template: strs(), Workers: num(),
		Files: files(), GroupIndex: num(), Result: result(), Error: str(),
	}
	if some() {
		m.Strategy = strategy.Config{
			Kind: strategy.Kind(num()), Locality: strategy.Locality(num()),
			Placement: strategy.Placement(num()), Grouping: str(), Assigner: str(),
			Multicore: some(), Prefetch: num(), CommonFiles: strs(),
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		m.Groups = append(m.Groups, num())
	}
	for i := rng.Intn(4); i > 0; i-- {
		m.Results = append(m.Results, result())
	}
	if some() {
		m.BytesMoved, m.MakespanSec = wide(), float()
	}
	if some() {
		m.TransferPhaseSec, m.OutputBytes = float(), wide()
	}
	if some() {
		m.Seq = rng.Uint64()
	}
	return m
}

// typical holds, per type, a message with every field that type uses in the
// runtime populated.
func typical() []*Message {
	strat := strategy.Config{
		Kind: strategy.PrePartition, Locality: strategy.Local, Placement: strategy.ComputeToData,
		Grouping: "pairwise-adjacent", Assigner: "size-balanced", Multicore: true, Prefetch: 4,
		CommonFiles: []string{"nr.db", "nr.idx"},
	}
	template := []string{"blastp", "-db", "${nr.db}", "-query", "$inp1"}
	files := []FileInfo{{Name: "q-0001.fa", Size: 1 << 10}, {Name: "q-0002.fa", Size: 3 << 20}}
	results := []TaskResult{
		{GroupIndex: 0, Worker: "w0", OK: true, DurationSec: 0.25, Output: "12 hits"},
		{GroupIndex: 1, Worker: "w1", Error: "exit status 2", DurationSec: 1.5},
	}
	return []*Message{
		{Type: TStartMaster, Strategy: strat, Template: template, Seq: 1},
		{Type: TPartitionType, Strategy: strat, Seq: 2},
		{Type: TForkWorkers, Workers: 16, Seq: 3},
		{Type: TWorkerError, Worker: "w3", Error: "disk full"},
		{Type: TRemoveWorker, Worker: "w4", Seq: 5},
		{Type: TShutdown, Seq: 6},
		{Type: TAck, Cores: 4, Template: template, ReturnOutputs: true, ExpectFiles: 4096, Error: "rejected", Seq: 7},
		{Type: TRegister, Worker: "w0", Cores: 4},
		{Type: TFileData, FileName: "q-0001.fa", Worker: "w0", Offset: 512, FileSize: 1 << 10, Data: []byte("MKVLAAGIV"), Last: true, Seq: 9},
		{Type: TDistribute, Worker: "w0", Files: files, Groups: []int{0, 4, 8}},
		{Type: TRequestData, Worker: "w0"},
		{Type: TExecute, GroupIndex: 7, Files: files},
		{Type: TTaskStatus, Result: TaskResult{GroupIndex: 7, Worker: "w0", Error: "core: blastp: exit status 1", DurationSec: 0.5, Output: "no hits"}},
		{Type: TNoMoreData},
		{Type: TMasterDone, Results: results, BytesMoved: 3<<20 + 1<<10, MakespanSec: 12.5, TransferPhaseSec: 0.25, OutputBytes: 48},
	}
}

// Property: every message type survives the codec, every field of it,
// control messages through the control body and data messages through the
// binary frame, interleaved on one stream.
func TestRoundTripEveryTypeInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	c := NewCodec(&buf)
	sent := typical()
	for _, m := range sent {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Type, err)
		}
	}
	for round := 0; round < 20; round++ {
		types := allTypes()
		rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
		for _, ty := range types {
			m := sample(ty, rng)
			if err := c.Send(m); err != nil {
				t.Fatalf("send %s: %v", ty, err)
			}
			sent = append(sent, m)
		}
	}
	for i, want := range sent {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d (%s): %v", i, want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d mangled:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// The wire carries a TFileData as a data frame whose payload is the sender's
// bytes, never in a control frame; a control frame claiming TFileData is
// refused.
func TestFileDataTravelsAsFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	payload := bytes.Repeat([]byte{0xC3}, 5000)
	if err := c.Send(&Message{Type: TFileData, FileName: "f", Data: payload, FileSize: 5000, Last: true}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if wire[0] != frameData {
		t.Fatalf("TFileData left with tag 0x%02x, want the data-frame tag 0x%02x", wire[0], frameData)
	}
	if want := 1 + dataHeaderLen + len("f") + len(payload); len(wire) != want {
		t.Fatalf("frame is %d bytes, want %d", len(wire), want)
	}
	if !bytes.HasSuffix(wire, payload) {
		t.Fatal("payload is not on the wire verbatim")
	}
	buf.Reset()
	if err := c.Send(&Message{Type: TRequestData}); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] != frameControl {
		t.Fatalf("control message left with tag 0x%02x", buf.Bytes()[0])
	}

	// A peer that puts a data message in a control frame is not speaking the
	// protocol.
	hostile := controlFrame(byte(TFileData), fieldWorker, 1, 'w')
	if _, err := recvAll(hostile); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("TFileData in a control frame: %v, want ErrBadFrame", err)
	}

	// The data-frame fields have no place in a control frame, so a control
	// message that sets one is refused rather than sent without it.
	for _, m := range []*Message{
		{Type: TExecute, FileName: "f"},
		{Type: TAck, Offset: 1},
		{Type: TTaskStatus, Data: []byte{}},
		{Type: TNoMoreData, Last: true},
		{Type: TDistribute, FileSize: 5},
	} {
		buf.Reset()
		if err := c.Send(m); err == nil || buf.Len() != 0 {
			t.Errorf("%s with a data-frame field: err %v, %d bytes written", m.Type, err, buf.Len())
		}
	}
}

// Recv reuses one payload buffer per codec: Data is valid until the next
// Recv, and receiving allocates nothing.
func TestRecvReusesPayloadBuffer(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	const n, size = 64, 64 << 10
	for i := 0; i < n; i++ {
		if err := c.Send(&Message{Type: TFileData, FileName: "f", Offset: int64(i * size), Data: bytes.Repeat([]byte{byte(i)}, size)}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	buf0 := &first.Data[0] // taken now: first is reused by the next Recv
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < n; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Data) != size || m.Data[0] != byte(i) || m.Data[size-1] != byte(i) {
			t.Fatalf("chunk %d corrupted", i)
		}
		if &m.Data[0] != buf0 {
			t.Fatalf("chunk %d arrived in a new buffer", i)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / (n - 1); per > 2048 {
		t.Fatalf("%d bytes allocated per received 64 KiB chunk", per)
	}
}

// chunks is a stream whose every Read returns at most the rest of its first
// part: the test decides where the reads of a stream end.
type chunks [][]byte

func (c *chunks) Read(p []byte) (int, error) {
	for len(*c) > 0 && len((*c)[0]) == 0 {
		*c = (*c)[1:]
	}
	if len(*c) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*c)[0])
	(*c)[0] = (*c)[0][n:]
	return n, nil
}

// Buffered reports a frame of either kind once the read-ahead holds all of
// it, and not while any of it is still to be read: the stream of three
// frames arrives in two reads, cut at every byte.
func TestBufferedSeesWholeFrames(t *testing.T) {
	var wire bytes.Buffer
	tx := NewCodec(&wire)
	var ends []int // where each frame ends in the stream
	for _, m := range []*Message{
		{Type: TTaskStatus, Result: TaskResult{GroupIndex: 1, OK: true}},
		{Type: TFileData, FileName: "f", Worker: "w", Data: []byte("payload"), Last: true},
		{Type: TExecute, GroupIndex: 2, Files: []FileInfo{{Name: "f", Size: 7}}},
	} {
		if err := tx.Send(m); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, wire.Len())
	}
	stream := wire.Bytes()
	for cut := 1; cut < len(stream); cut++ {
		rx := NewCodec(struct {
			io.Reader
			io.Writer
		}{&chunks{stream[:cut:cut], stream[cut:]}, io.Discard})
		if rx.Buffered() {
			t.Fatalf("cut %d: a frame buffered before any read", cut)
		}
		// The first Recv reads the first part, and the second too if the
		// first frame does not end in it.
		if _, err := rx.Recv(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ends); i++ {
			// Frame i is whole in the read-ahead when the first part holds
			// it, or when the first Recv read the second part too.
			want := cut >= ends[i] || cut < ends[0]
			if got := rx.Buffered(); got != want {
				t.Fatalf("cut %d, frame %d (ends at %d): Buffered() = %v, want %v", cut, i, ends[i], got, want)
			}
			if !want {
				break // the next Recv reads the stream
			}
			if _, err := rx.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Recv returns the codec's one message every time, and a control frame's
// slices land in backing arrays reused from the frames before it.
func TestRecvReusesMessage(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	files := []FileInfo{{Name: "a", Size: 1}, {Name: "b", Size: 2}}
	for g := 0; g < 3; g++ {
		if err := c.Send(&Message{Type: TExecute, GroupIndex: g, Files: files}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	files0 := &first.Files[0] // taken now: first is reused by the next Recv
	for g := 1; g < 3; g++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m != first || &m.Files[0] != files0 {
			t.Fatalf("EXECUTE %d arrived in a new message or a new Files array", g)
		}
		if m.GroupIndex != g || !reflect.DeepEqual(m.Files, files) {
			t.Fatalf("EXECUTE %d arrived as %+v", g, m)
		}
	}
}

// TestRecvDoesNotAllocate: on a codec that has seen the names, the per-task
// steady state of a real-time worker and its master — FILE_DATA(f), then
// EXECUTE(f), then TASK_STATUS — is received without a single allocation.
// The file and worker names come from the codec's string ring, the payload
// and the Files list from buffers it reuses.
func TestRecvDoesNotAllocate(t *testing.T) {
	var buf bytes.Buffer
	tx := NewCodec(&buf)
	const name = "s1-f000007.dat"
	payload := bytes.Repeat([]byte{7}, 1<<10)
	for _, m := range []*Message{
		{Type: TFileData, FileName: name, Worker: "w0", Data: payload, FileSize: 1 << 10, Last: true},
		{Type: TExecute, GroupIndex: 7, Files: []FileInfo{{Name: name, Size: 1 << 10}}},
		{Type: TTaskStatus, Result: TaskResult{GroupIndex: 7, Worker: "w0", OK: true, DurationSec: 0.001}},
	} {
		if err := tx.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	stream := bytes.NewReader(buf.Bytes())
	rx := NewCodec(struct {
		io.Reader
		io.Writer
	}{stream, io.Discard})
	allocs := testing.AllocsPerRun(100, func() {
		stream.Reset(buf.Bytes())
		for i := 0; i < 3; i++ {
			if _, err := rx.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per FILE_DATA, EXECUTE, TASK_STATUS received, want 0", allocs)
	}
}

// distinctNames sends n TFileData frames, each a whole 1 KiB file of a name
// no other frame has (each at least nameLen bytes long), and returns the
// stream and the names in order.
func distinctNames(t testing.TB, n, nameLen int) ([]byte, []string) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	payload := make([]byte, 1<<10)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%0*d.dat", nameLen, i)
		m := &Message{Type: TFileData, FileName: names[i], Worker: "w0", Data: payload, FileSize: 1 << 10, Last: true}
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), names
}

// Decoded names are carved from slabs that are replaced as they fill: every
// name kept across many slabs still reads as it was sent.
func TestCarvedNamesStayValid(t *testing.T) {
	stream, names := distinctNames(t, 10000, 6)
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(stream), io.Discard})
	got := make([]string, 0, len(names))
	for range names {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.FileName)
	}
	for i, want := range names {
		if got[i] != want {
			t.Fatalf("name %d reads %q, sent %q", i, got[i], want)
		}
	}
}

// recvEach receives stream's frames one per run of testing.AllocsPerRun and
// returns the allocations per frame. The codec is warmed first by a frame of
// a name the stream does not repeat.
func recvEach(t *testing.T, stream []byte, frames int) float64 {
	warm, _ := distinctNames(t, 1, 1)
	r := bytes.NewReader(warm)
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{r, io.Discard})
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	r.Reset(stream)
	return testing.AllocsPerRun(frames-1, func() {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	})
}

// Receiving a TFileData of a name the codec has not seen costs a share of a
// slab, not an allocation of its own.
func TestNewNameIsCarved(t *testing.T) {
	const frames = 4000
	stream, _ := distinctNames(t, frames, 12)
	if allocs := recvEach(t, stream, frames); allocs > 0.02 {
		t.Fatalf("%.3f allocations per FILE_DATA of a new name, want at most 0.02", allocs)
	}
}

// A name longer than maxCarve gets an allocation of its own, so that keeping
// it alive keeps no slab alive.
func TestLongNameIsAllocated(t *testing.T) {
	const frames = 200
	stream, _ := distinctNames(t, frames, maxCarve+1)
	if allocs := recvEach(t, stream, frames); allocs != 1 {
		t.Fatalf("%.3f allocations per FILE_DATA of a new name over %d bytes, want 1", allocs, maxCarve)
	}
}

// Sending any control message on a warm codec allocates nothing: the frame
// is built in the send buffer's spare room.
func TestSendDoesNotAllocate(t *testing.T) {
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{nil, io.Discard})
	for _, m := range typical() {
		if err := c.Send(m); err != nil { // grows the send buffer
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { c.Send(m) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per Send, want 0", m.Type, allocs)
		}
	}
}

// One codec as its own peer over a bytes.Buffer, control and data frames
// interleaved, each received before the next is sent and the buffer emptied
// between rounds: the shape of the benchmark's protocol probe.
func TestCodecIsItsOwnPeer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	c := NewCodec(&buf)
	msgs := typical()
	for round := 0; round < 50; round++ {
		buf.Reset()
		for _, ty := range []Type{TExecute, TFileData, TTaskStatus, TFileData, TMasterDone} {
			want := sample(ty, rng)
			if round%5 == 0 {
				want = msgs[rng.Intn(len(msgs))]
			}
			if err := c.Send(want); err != nil {
				t.Fatal(err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, want.Type, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: mangled:\n got %+v\nwant %+v", round, got, want)
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("round %d left %d bytes unread", round, buf.Len())
		}
	}
}

// Concurrent senders of both frame kinds: frames must not interleave.
func TestConcurrentSendersMixedFrames(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	c := NewCodec(&syncRW{buf: &buf, mu: &mu})
	const senders, each = 8, 60
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for j := 0; j < each; j++ {
				var m *Message
				if j%2 == 0 {
					m = &Message{Type: TFileData, FileName: fmt.Sprintf("s%d", s), Offset: int64(j), Data: bytes.Repeat([]byte{byte(s)}, 1+rng.Intn(9000))}
				} else {
					m = &Message{Type: TTaskStatus, Worker: fmt.Sprintf("s%d", s), GroupIndex: j}
				}
				if err := c.Send(m); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	next := make(map[string]int) // per sender: the j expected next
	for i := 0; i < senders*each; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		who, j := m.Worker, m.GroupIndex
		if m.Type == TFileData {
			who, j = m.FileName, int(m.Offset)
			for _, b := range m.Data {
				if fmt.Sprintf("s%d", b) != who {
					t.Fatalf("payload of %s holds bytes of sender %d", who, b)
				}
			}
		}
		if j != next[who] {
			t.Fatalf("%s: message %d arrived, expected %d", who, j, next[who])
		}
		next[who]++
	}
}

// countingWriter counts the Write calls that reach it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// recvN decodes n messages from stream and checks them against want.
func recvN(t *testing.T, stream []byte, want []*Message) {
	t.Helper()
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(stream), io.Discard})
	for i, w := range want {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d (%s): %v", i, w.Type, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("message %d mangled:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("after %d messages: %v, want io.EOF", len(want), err)
	}
}

// Frames sent under a hold, of every kind, leave in exactly one Write when the
// hold is released, and decode to the same messages in the same order. Outside
// a hold every Send is its own Write.
func TestHeldFramesLeaveInOneWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var w countingWriter
	c := NewCodec(&w)
	var sent []*Message
	c.Hold()
	for _, ty := range append(allTypes(), TFileData, TExecute, TFileData) {
		m := sample(ty, rng)
		if err := c.Send(m); err != nil {
			t.Fatalf("held send %s: %v", ty, err)
		}
		sent = append(sent, m)
	}
	if w.writes != 0 || w.Len() != 0 {
		t.Fatalf("%d writes, %d bytes before the hold was released", w.writes, w.Len())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("%d held frames left in %d writes, want 1", len(sent), w.writes)
	}
	for i := 0; i < 3; i++ {
		m := sample(TTaskStatus, rng)
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, m)
		if w.writes != 2+i {
			t.Fatalf("send %d outside a hold: %d writes so far, want %d", i, w.writes, 2+i)
		}
	}
	recvN(t, w.Bytes(), sent)
}

// Holds nest by count: only the release of the last one writes.
func TestHoldsNest(t *testing.T) {
	var w countingWriter
	c := NewCodec(&w)
	c.Hold()
	c.Hold()
	c.Send(&Message{Type: TTaskStatus, GroupIndex: 1})
	if err := c.Flush(); err != nil || w.writes != 0 {
		t.Fatalf("inner release: %v, %d writes", err, w.writes)
	}
	c.Send(&Message{Type: TTaskStatus, GroupIndex: 2})
	if err := c.Flush(); err != nil || w.writes != 1 {
		t.Fatalf("outer release: %v, %d writes", err, w.writes)
	}
	// A Flush nobody is owed is harmless, and the codec writes through again.
	if err := c.Flush(); err != nil || w.writes != 1 {
		t.Fatalf("spare release: %v, %d writes", err, w.writes)
	}
	c.Send(&Message{Type: TTaskStatus, GroupIndex: 3})
	if w.writes != 2 {
		t.Fatalf("send after the releases: %d writes, want 2", w.writes)
	}
}

// A payload over the copy threshold does not wait for the release: it goes out
// at once behind everything held before it, from the caller's slice, and the
// frames after it are held again.
func TestLongPayloadIsWrittenNotCopied(t *testing.T) {
	var w countingWriter
	c := NewCodec(&w)
	before := &Message{Type: TExecute, GroupIndex: 1, Files: []FileInfo{{Name: "a", Size: 1}}}
	small := &Message{Type: TFileData, FileName: "small", Data: bytes.Repeat([]byte{1}, copyThreshold), FileSize: copyThreshold, Last: true}
	long := &Message{Type: TFileData, FileName: "long", Data: bytes.Repeat([]byte{2}, copyThreshold+1), FileSize: copyThreshold + 1, Last: true}
	after := &Message{Type: TExecute, GroupIndex: 2, Files: []FileInfo{{Name: "long", Size: copyThreshold + 1}}}

	c.Hold()
	c.Send(before)
	c.Send(small)
	if w.writes != 0 {
		t.Fatalf("a payload of the threshold itself was written early (%d writes)", w.writes)
	}
	c.Send(long)
	// The send buffer and the payload, one after the other: a socket takes the
	// two in one writev, a plain writer in two Writes.
	if w.writes != 2 {
		t.Fatalf("long payload under a hold: %d writes, want 2", w.writes)
	}
	c.Send(after)
	if w.writes != 2 {
		t.Fatal("the frame after the long payload was not held")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	recvN(t, w.Bytes(), []*Message{before, small, long, after})

	// Not copied: sending 256 KiB chunks, held or not, allocates nothing and
	// leaves the send buffer small.
	chunk := &Message{Type: TFileData, FileName: "bulk", Data: make([]byte, 256<<10), FileSize: 1 << 30}
	sink := NewCodec(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), io.Discard})
	for _, held := range []bool{false, true} {
		allocs := testing.AllocsPerRun(50, func() {
			if held {
				sink.Hold()
			}
			if err := sink.Send(chunk); err != nil {
				t.Fatal(err)
			}
			if held {
				sink.Flush()
			}
		})
		if allocs != 0 {
			t.Errorf("held=%v: %.1f allocations per 256 KiB chunk sent", held, allocs)
		}
	}
	if sink.pend.Cap() > maxPending {
		t.Errorf("send buffer grew to %d bytes carrying long payloads", sink.pend.Cap())
	}
}

// Many small chunks under one hold do not pile up: once maxPending bytes wait,
// they are written although nobody released the hold.
func TestPendingBoundWritesEarly(t *testing.T) {
	var w countingWriter
	c := NewCodec(&w)
	const n, size = 400, 1000
	c.Hold()
	var sent []*Message
	for i := 0; i < n; i++ {
		m := &Message{Type: TFileData, FileName: "out", Offset: int64(i * size), Data: bytes.Repeat([]byte{byte(i)}, size), FileSize: n * size, Last: i == n-1}
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, m)
		if c.pend.Len() >= maxPending {
			t.Fatalf("%d bytes pending after chunk %d, bound is %d", c.pend.Len(), i, maxPending)
		}
	}
	if want := n * size / maxPending; w.writes < want {
		t.Fatalf("%d early writes for %d held bytes, want at least %d", w.writes, n*size, want)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	recvN(t, w.Bytes(), sent)
}

// Concurrent holders whose Sends interleave — a multicore worker's executors
// returning outputs and statuses, with an unheld sender beside them — lose
// nothing, tear no frame, and keep every sender's own order.
func TestConcurrentHolders(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	c := NewCodec(&syncRW{buf: &buf, mu: &mu})
	const senders, rounds = 6, 40
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			who := fmt.Sprintf("s%d", s)
			for j := 0; j < rounds; j++ {
				hold := s > 0 // sender 0 never holds
				if hold {
					c.Hold()
				}
				size := 500 + 3000*(j%3) + (copyThreshold+1)*(j%5/4) // every fifth is long
				c.Send(&Message{Type: TFileData, FileName: who, Offset: int64(2 * j), Data: bytes.Repeat([]byte{byte(s)}, size)})
				c.Send(&Message{Type: TTaskStatus, Worker: who, GroupIndex: 2*j + 1})
				if hold {
					if err := c.Flush(); err != nil {
						t.Error(err)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	next := make(map[string]int)
	for i := 0; i < senders*rounds*2; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		who, j := m.Worker, m.GroupIndex
		if m.Type == TFileData {
			who, j = m.FileName, int(m.Offset)
			if fmt.Sprintf("s%d", m.Data[0]) != who || bytes.Count(m.Data, m.Data[:1]) != len(m.Data) {
				t.Fatalf("payload of %s holds another sender's bytes", who)
			}
		}
		if j != next[who] {
			t.Fatalf("%s: message %d arrived, expected %d", who, j, next[who])
		}
		next[who]++
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("after the last message: %v, want io.EOF", err)
	}
}

// failingWriter fails every Write after the first ok.
type failingWriter struct {
	ok  int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.ok > 0 {
		w.ok--
		return len(p), nil
	}
	return 0, w.err
}

func (w *failingWriter) Read([]byte) (int, error) { return 0, io.EOF }

// A held Send that writes nothing cannot fail; the failure of the write comes
// back from the Flush, and from every Send after it.
func TestWriteErrorSurfacesAtFlush(t *testing.T) {
	boom := errors.New("boom")
	c := NewCodec(&failingWriter{ok: 1, err: boom})
	if err := c.Send(&Message{Type: TAck}); err != nil {
		t.Fatalf("send through a working writer: %v", err)
	}
	c.Hold()
	for i := 0; i < 3; i++ {
		if err := c.Send(&Message{Type: TTaskStatus, GroupIndex: i}); err != nil {
			t.Fatalf("held send %d: %v", i, err)
		}
	}
	if err := c.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush over a failing writer: %v, want boom", err)
	}
	if err := c.Send(&Message{Type: TAck}); !errors.Is(err, boom) {
		t.Fatalf("send after a failed flush: %v, want boom", err)
	}
	c.Hold()
	if err := c.Send(&Message{Type: TAck}); !errors.Is(err, boom) {
		t.Fatalf("held send after a failed flush: %v, want boom", err)
	}
	if err := c.Flush(); !errors.Is(err, boom) {
		t.Fatalf("second flush: %v, want boom", err)
	}

	// An early write that fails under a hold surfaces on the Send that made it.
	c = NewCodec(&failingWriter{err: boom})
	c.Hold()
	if err := c.Send(&Message{Type: TFileData, FileName: "f", Data: make([]byte, copyThreshold+1)}); !errors.Is(err, boom) {
		t.Fatalf("long held send over a failing writer: %v, want boom", err)
	}
}

// twoMessageStream is a valid stream of one control and one data frame.
func twoMessageStream(t testing.TB) []byte {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	if err := c.Send(&Message{Type: TExecute, GroupIndex: 3, Files: []FileInfo{{Name: "a.dat", Size: 9}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&Message{Type: TFileData, FileName: "a.dat", Worker: "w1", Data: []byte("123456789"), FileSize: 9, Last: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// heldStream is what one released hold puts on the wire: several frames of
// both kinds back to back in one buffer.
func heldStream(t testing.TB) []byte {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	c.Hold()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("f%d.dat", i)
		c.Send(&Message{Type: TFileData, FileName: name, Data: []byte("payload"), FileSize: 7, Last: true})
		c.Send(&Message{Type: TExecute, GroupIndex: i, Files: []FileInfo{{Name: name, Size: 7}}})
	}
	c.Send(&Message{Type: TNoMoreData})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recvAll decodes frames until the first error and returns it.
func recvAll(stream []byte) (int, error) {
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(stream), io.Discard})
	for n := 0; ; n++ {
		if _, err := c.Recv(); err != nil {
			return n, err
		}
	}
}

// Every proper prefix of a valid stream decodes to an error — io.EOF exactly
// at a frame boundary, ErrTruncated inside a frame — and never panics or
// hangs.
func TestTruncatedStreams(t *testing.T) {
	stream := twoMessageStream(t)
	if n, err := recvAll(stream); n != 2 || err != io.EOF {
		t.Fatalf("full stream: %d messages, %v", n, err)
	}
	var boundary int // where the control frame ends
	for cut := 1; cut < len(stream); cut++ {
		if n, _ := recvAll(stream[:cut]); n == 1 && boundary == 0 {
			boundary = cut
		}
	}
	for cut := 0; cut < len(stream); cut++ {
		n, err := recvAll(stream[:cut])
		switch {
		case cut == 0 || cut == boundary:
			if err != io.EOF {
				t.Fatalf("cut at frame boundary %d: %v, want io.EOF", cut, err)
			}
		case !errors.Is(err, ErrTruncated):
			t.Fatalf("cut at %d (after %d messages): %v, want ErrTruncated", cut, n, err)
		}
	}
}

// controlFrame builds a control frame whose body is the type byte, the mask
// and then body, verbatim.
func controlFrame(typ byte, mask uint32, body ...byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{typ}, mask)
	b = append(b, body...)
	return append(binary.BigEndian.AppendUint32([]byte{frameControl}, uint32(len(b))), b...)
}

// dataFrame builds a data frame header with arbitrary claimed lengths.
func dataFrame(flags byte, nameLen, workLen uint16, dataLen uint32, offset, size int64, tail []byte) []byte {
	h := []byte{frameData, flags}
	h = binary.BigEndian.AppendUint16(h, nameLen)
	h = binary.BigEndian.AppendUint16(h, workLen)
	h = binary.BigEndian.AppendUint32(h, dataLen)
	h = binary.BigEndian.AppendUint64(h, uint64(offset))
	h = binary.BigEndian.AppendUint64(h, uint64(size))
	h = binary.BigEndian.AppendUint64(h, 0)
	return append(h, tail...)
}

// Hostile frames are typed errors, and a claimed length is checked before
// anything is allocated for it.
func TestHostileFrames(t *testing.T) {
	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"unknown tag", []byte{0x7f, 1, 2, 3}, ErrBadFrame},
		{"zero tag", make([]byte, 64), ErrBadFrame},
		{"garbage control", append(binary.BigEndian.AppendUint32([]byte{frameControl}, 120), bytes.Repeat([]byte{0x05, 0xff, 0x81}, 40)...), ErrBadFrame},
		{"control over MaxControl", binary.BigEndian.AppendUint32([]byte{frameControl}, MaxControl+1), ErrBadFrame},
		{"control body never arrives", append(binary.BigEndian.AppendUint32([]byte{frameControl}, MaxControl), 1, 2, 3), ErrTruncated},
		{"empty control body", binary.BigEndian.AppendUint32([]byte{frameControl}, 0), ErrBadFrame},
		{"TInvalid", controlFrame(byte(TInvalid), 0), ErrBadFrame},
		{"EXECUTE_BATCH", controlFrame(byte(TExecuteBatch), fieldGroupIndex, 14), ErrBadFrame},
		{"type past the last", controlFrame(byte(TExecuteBatch+1), 0), ErrBadFrame},
		{"highest type byte", controlFrame(0xff, 0), ErrBadFrame},
		{"unknown mask bit", controlFrame(byte(TAck), fieldsAll+1), ErrBadFrame},
		{"trailing bytes", controlFrame(byte(TAck), fieldSeq, 7, 0), ErrBadFrame},
		{"count over-claims the body", controlFrame(byte(TExecute), fieldFiles, 0xff, 0xff, 0x03, 1, 'a', 0), ErrBadFrame},
		{"huge count", controlFrame(byte(TMasterDone), fieldResults, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), ErrBadFrame},
		{"string over-claims the body", controlFrame(byte(TRequestData), fieldWorker, 10, 'w'), ErrBadFrame},
		{"unterminated varint", controlFrame(byte(TExecute), fieldGroupIndex, 0xff, 0xff), ErrBadFrame},
		{"float cut short", controlFrame(byte(TMasterDone), fieldMakespanSec, 1, 2, 3), ErrBadFrame},
		{"unknown result bit", controlFrame(byte(TTaskStatus), fieldResult, 0x80), ErrBadFrame},
		{"oversize chunk", dataFrame(0, 1, 0, MaxChunk+1, 0, 0, []byte("f")), ErrChunkTooLarge},
		{"huge chunk", dataFrame(0, 1, 0, 0xffffffff, 0, 0, []byte("f")), ErrChunkTooLarge},
		{"oversize name", dataFrame(0, MaxName+1, 0, 0, 0, 0, nil), ErrNameTooLong},
		{"oversize worker", dataFrame(0, 1, 0xffff, 0, 0, 0, nil), ErrNameTooLong},
		{"unknown flags", dataFrame(0x82, 1, 0, 0, 0, 0, []byte("f")), ErrBadFrame},
		{"negative offset", dataFrame(0, 1, 0, 0, -5, 0, []byte("f")), ErrBadFrame},
		{"negative size", dataFrame(0, 1, 0, 0, 0, -1, []byte("f")), ErrBadFrame},
		{"chunk never arrives", dataFrame(0, 1, 0, 1000, 0, 1000, []byte("fxx")), ErrTruncated},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := recvAll(tc.stream)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing the frame allocated %d bytes", tc.name, grew)
		}
	}

	// The sender is held to the same bounds, and to the same types.
	var sent bytes.Buffer
	c := NewCodec(&sent)
	for _, typ := range []Type{TExecuteBatch, TExecuteBatch + 1, -1} {
		if err := c.Send(&Message{Type: typ, GroupIndex: 7}); err == nil || sent.Len() != 0 {
			t.Errorf("Send of %s: err %v, %d bytes written", typ, err, sent.Len())
		}
	}
	if err := c.Send(&Message{Type: TFileData, Data: make([]byte, MaxChunk+1)}); !errors.Is(err, ErrChunkTooLarge) {
		t.Errorf("oversize Send: %v", err)
	}
	if err := c.Send(&Message{Type: TFileData, FileName: string(make([]byte, MaxName+1))}); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("long-name Send: %v", err)
	}
}

// FuzzCodecRecv feeds arbitrary bytes to Recv: whatever they are, decoding
// ends in an error, without a panic and without a large allocation, and every
// message decoded on the way sends, decodes and sends again to the same frame
// (bytes, not values: a float may be NaN). The seed
// corpus runs under plain `go test`.
func FuzzCodecRecv(f *testing.F) {
	stream := twoMessageStream(f)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add(append([]byte{frameControl}, stream[5:]...))
	f.Add(dataFrame(flagLast, 1, 1, 3, 0, 3, []byte("fwabc")))
	f.Add(heldStream(f))
	f.Add(dataFrame(0, 1, 0, 0xffffffff, 0, 0, []byte("f")))
	f.Add([]byte{frameControl, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	flipped := append([]byte(nil), stream...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// One valid frame of every type, every field the type uses set.
	for _, m := range typical() {
		var buf bytes.Buffer
		if err := NewCodec(&buf).Send(m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Control frames that lie.
	f.Add(binary.BigEndian.AppendUint32([]byte{frameControl}, MaxControl+1))
	f.Add(controlFrame(byte(TExecute), fieldFiles, 0xff, 0xff, 0x03, 1, 'a', 0))
	f.Add(controlFrame(byte(TAck), fieldsAll+1))
	f.Add(controlFrame(byte(TAck), fieldSeq, 7, 0))
	// Control frames of a type they may not carry: TInvalid, FILE_DATA,
	// EXECUTE_BATCH (alone and behind a valid frame) and the type bytes past
	// it.
	f.Add(controlFrame(byte(TInvalid), 0))
	f.Add(controlFrame(byte(TFileData), fieldWorker, 1, 'w'))
	f.Add(controlFrame(byte(TExecuteBatch), fieldGroupIndex, 14))
	f.Add(append(twoMessageStream(f), controlFrame(byte(TExecuteBatch), 0)...))
	f.Add(controlFrame(byte(TExecuteBatch+1), 0))
	f.Add(controlFrame(0xff, fieldsAll))
	// A MASTER_DONE with only the staging time, 0.25 s, and 48 returned
	// bytes.
	f.Add(controlFrame(byte(TMasterDone), fieldTransferPhaseSec|fieldOutputBytes, 0, 0, 0, 0, 0, 0, 0xd0, 0x3f, 0x60))
	// A registration ACK of one slot that tells the worker to expect 4,096
	// files.
	f.Add(controlFrame(byte(TAck), fieldCores|fieldExpectFiles, 2, 0x80, 0x40))
	// Data frames of distinct names past the first slab's end.
	names, _ := distinctNames(f, firstSlab/8+1, 4)
	f.Add(names)
	f.Fuzz(func(t *testing.T, in []byte) {
		c := NewCodec(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(in), io.Discard})
		var echo bytes.Buffer
		again := NewCodec(&echo)
		for n := 0; ; n++ {
			m, err := c.Recv()
			if err != nil {
				if n > len(in) {
					t.Fatalf("%d messages out of %d bytes", n, len(in))
				}
				return
			}
			if err := again.Send(m); err != nil {
				t.Fatalf("message %d does not send again: %v", n, err)
			}
			frame := bytes.Clone(echo.Bytes())
			m2, err := again.Recv()
			if err != nil {
				t.Fatalf("message %d sent again does not decode: %v", n, err)
			}
			if err := again.Send(m2); err != nil || !bytes.Equal(echo.Bytes(), frame) {
				t.Fatalf("message %d: frame % x became % x (%v)", n, frame, echo.Bytes(), err)
			}
			echo.Reset()
		}
	})
}
