package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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
	for t := TStartMaster; t <= TExecuteBatch; t++ {
		ts = append(ts, t)
	}
	return ts
}

// sample builds a message of type t from rng: the data-frame fields for
// TFileData, a spread of the gob-carried fields otherwise.
func sample(t Type, rng *rand.Rand) *Message {
	name := fmt.Sprintf("file-%d.dat", rng.Intn(1000))
	if t == TFileData {
		m := &Message{
			Type: t, FileName: name, Worker: fmt.Sprintf("w%d", rng.Intn(8)),
			Offset: rng.Int63n(1 << 40), FileSize: rng.Int63n(1 << 40),
			Last: rng.Intn(2) == 0, Seq: rng.Uint64(),
		}
		if n := rng.Intn(3000); n > 0 {
			m.Data = make([]byte, n)
			rng.Read(m.Data)
		}
		return m
	}
	return &Message{
		Type: t, Worker: fmt.Sprintf("w%d", rng.Intn(8)), Cores: rng.Intn(16),
		GroupIndex: rng.Intn(1 << 20), Seq: rng.Uint64(), Error: name,
		Files:    []FileInfo{{Name: name, Size: rng.Int63()}},
		Groups:   []int{rng.Intn(100), rng.Intn(100)},
		Result:   TaskResult{GroupIndex: rng.Intn(100), Worker: "w", OK: true, DurationSec: rng.Float64()},
		Executes: []ExecuteSpec{{GroupIndex: rng.Intn(100), Files: []FileInfo{{Name: name, Size: 1}}}},
		Strategy: strategy.Config{Kind: strategy.RealTime, CommonFiles: []string{name}},
	}
}

// Property: every message type survives the codec, control messages through
// gob and data messages through the binary frame, interleaved on one stream.
func TestRoundTripEveryTypeInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	c := NewCodec(&buf)
	var sent []*Message
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
// bytes, never as gob; a gob-coded TFileData is refused.
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

	// A peer that gob-encodes a data message is not speaking the protocol.
	var hostile bytes.Buffer
	hostile.WriteByte(frameControl)
	if err := gob.NewEncoder(&hostile).Encode(&Message{Type: TFileData, Data: payload}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCodec(&hostile).Recv(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("gob-coded TFileData: %v, want ErrBadFrame", err)
	}
}

// Recv reuses one payload buffer per codec: Data is valid until the next
// Recv, and receiving allocates the message only.
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
		if &m.Data[0] != &first.Data[0] {
			t.Fatalf("chunk %d arrived in a new buffer", i)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / (n - 1); per > 2048 {
		t.Fatalf("%d bytes allocated per received 64 KiB chunk", per)
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
		{"garbage gob", append([]byte{frameControl}, bytes.Repeat([]byte{0x05, 0xff, 0x81}, 40)...), ErrBadFrame},
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

	// The sender is held to the same bounds.
	c := NewCodec(&bytes.Buffer{})
	if err := c.Send(&Message{Type: TFileData, Data: make([]byte, MaxChunk+1)}); !errors.Is(err, ErrChunkTooLarge) {
		t.Errorf("oversize Send: %v", err)
	}
	if err := c.Send(&Message{Type: TFileData, FileName: string(make([]byte, MaxName+1))}); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("long-name Send: %v", err)
	}
}

// FuzzCodecRecv feeds arbitrary bytes to Recv: whatever they are, decoding
// ends in an error, without a panic and without a large allocation. The seed
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
	f.Fuzz(func(t *testing.T, in []byte) {
		n, err := recvAll(in)
		if err == nil {
			t.Fatal("decoding ended without an error")
		}
		if n > len(in) {
			t.Fatalf("%d messages out of %d bytes", n, len(in))
		}
	})
}
