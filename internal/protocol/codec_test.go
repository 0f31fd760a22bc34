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
		Strategy: StrategyInfo{Kind: "real-time", Common: []string{name}},
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
