package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"

	"frieda/internal/strategy"
)

// Wire format. A stream is a sequence of frames, each opening with one tag
// byte:
//
//	frameControl  a control message follows (every Type but TFileData): a
//	              uint32 body length, at most MaxControl, then the body
//	frameData     a TFileData chunk follows: the fixed header below, then the
//	              file name, the worker name and the raw payload
//
// Control-frame body. One layout serves every type: the Type byte, then a
// uint32 little-endian presence mask with one bit per Message field in
// declaration order (the field* constants), then the fields whose bits are
// set, in that order. The data-frame fields (FileName, Offset, Data, Last,
// FileSize) have no bit: only a TFileData carries them, and it never travels
// in a control frame.
// A field is present when it is not zero; a bool is its bit alone. Integers
// are varints (Seq a uvarint), floats 8 bytes little-endian, strings and
// byte slices a uvarint length and the bytes, other slices a uvarint count
// and the elements:
//
//	FileInfo    Name, Size
//	TaskResult  a mask byte (result* bits), then GroupIndex, Worker, Error,
//	            DurationSec, Output when set; OK is its bit
//	Strategy    a mask byte (strat* bits), then Kind, Locality, Placement,
//	            Grouping, Assigner, Prefetch, CommonFiles when set;
//	            Multicore is its bit
//
// The enums travel as integers: a value outside the constants arrives as it
// left, and the master's strategy.Config.Validate refuses it.
//
// Data-frame header, big-endian, the dataHeaderLen bytes after the tag:
//
//	flags    uint8   bit 0 = Last; other bits must be zero
//	nameLen  uint16  length of the file name, at most MaxName
//	workLen  uint16  length of the worker name, at most MaxName
//	dataLen  uint32  length of the payload, at most MaxChunk
//	offset   int64   position of the payload in the file
//	fileSize int64   total size of the file (0 = empty or not announced)
//	seq      uint64  Message.Seq
//
// The payload is never encoded: it leaves the sender's slice and lands in the
// receiver's buffer as the same bytes.
//
// Frames are built in one send buffer. Outside a hold every Send writes the
// buffer out before it returns; between Hold and the Flush that releases it,
// frames collect there and leave together, in the order they were sent.
const (
	frameControl = 0x01
	frameData    = 0x02

	flagLast = 0x01

	controlHeaderLen = 4
	dataHeaderLen    = 1 + 2 + 2 + 4 + 8 + 8 + 8
)

// Presence bits of a control body's mask, one per Message field.
const (
	fieldWorker = 1 << iota
	fieldCores
	fieldReturnOutputs
	fieldExpectFiles
	fieldStrategy
	fieldTemplate
	fieldWorkers
	fieldFiles
	fieldGroupIndex
	fieldGroups
	fieldResult
	fieldResults
	fieldBytesMoved
	fieldMakespanSec
	fieldTransferPhaseSec
	fieldOutputBytes
	fieldError
	fieldSeq
	fieldsAll = 1<<iota - 1
)

// Presence bits of a TaskResult's mask byte.
const (
	resultGroupIndex = 1 << iota
	resultWorker
	resultOK
	resultError
	resultDurationSec
	resultOutput
	resultsAll = 1<<iota - 1
)

// Presence bits of a strategy.Config's mask byte.
const (
	stratKind = 1 << iota
	stratLocality
	stratPlacement
	stratGrouping
	stratAssigner
	stratMulticore
	stratPrefetch
	stratCommonFiles
)

// Bounds on the lengths a frame may claim. A length read from a stream is
// checked against them before anything is allocated for it.
const (
	// MaxChunk is the largest payload of one TFileData message.
	MaxChunk = 16 << 20
	// MaxName is the longest file or worker name in a TFileData message.
	MaxName = 4096
	// MaxControl is the longest control-frame body. The largest legitimate
	// one is MASTER_DONE, whose Results hold one TaskResult per group: a
	// mask byte, a group index (at most 5 bytes), a worker name with its
	// length (about 10), an 8-byte duration and the output summary with its
	// length — 24 bytes with no output, about 4,130 when the summary fills
	// ExecProgram's 4 KiB cap (which holds on failure too). 1 GiB is 2^25
	// groups at 32 bytes, or 260,000 groups with full summaries. A body is
	// read into a buffer that grows with the bytes that arrive, so the bound
	// is not an allocation.
	MaxControl = 1 << 30
)

// ringSize is how many recently decoded strings a codec keeps, for both frame
// kinds: a received string equal to one of them is that string, not a new
// one. A file's chunks repeat its name and worker, its EXECUTE names it again
// and a TASK_STATUS names the worker, so a handful covers a connection's
// steady state; the lookup is a linear scan, so the ring stays small.
const ringSize = 8

// Bounds on the slabs a codec carves decoded strings from. A new string of
// at most maxCarve bytes is copied into the current slab and is a substring
// of it; a connection's first slab is firstSlab bytes and each next one
// twice the last, up to maxSlab, so a connection that decodes few strings
// pays about one small allocation for them. A longer string gets an
// allocation of its own, so a string kept alive pins at most one slab. No
// slab is shorter than maxCarve, so a string carved always fits a new one.
const firstSlab, maxSlab, maxCarve = 256, 4 << 10, 256

// Bounds on the send buffer. They are constants, not options: what they trade
// is a memory copy against a system call, which is a property of the machine
// and not of a workload.
const (
	// copyThreshold is the longest payload that is copied into the send
	// buffer beside its header, where it can share a write with the frames
	// around it. A longer one is written from the sender's slice (the buffer
	// and the payload in one writev) and never copied. Copying 16 KiB costs
	// about a microsecond, a fraction of the write it saves; past that the
	// copy grows to the cost of the call, and a bulk transfer's allocation
	// per byte must stay at one.
	copyThreshold = 16 << 10
	// maxPending is how many bytes may wait in the send buffer, and its
	// most capacity: a held Send that would take it further, or brings it
	// that far, writes it although the hold is not released, so a sender of
	// many small chunks cannot grow it without limit. Two payloads of
	// copyThreshold; each connection of a job allocates it once at most.
	maxPending = 32 << 10
)

// Errors of the framing layer; match with errors.Is.
var (
	// ErrBadFrame reports bytes that are not a frame: an unknown tag, an
	// impossible header field, a control body that does not decode to
	// exactly one message, or a message type that may not travel in the
	// frame it came in.
	ErrBadFrame = errors.New("protocol: malformed frame")
	// ErrTruncated reports a stream that ended inside a frame.
	ErrTruncated = errors.New("protocol: truncated frame")
	// ErrChunkTooLarge reports a payload longer than MaxChunk.
	ErrChunkTooLarge = errors.New("protocol: chunk exceeds MaxChunk")
	// ErrNameTooLong reports a file or worker name longer than MaxName.
	ErrNameTooLong = errors.New("protocol: name exceeds MaxName")
)

// Codec frames messages over a stream. Send, Hold and Flush are safe for
// concurrent use; Recv must be called from a single goroutine.
//
// Recv decodes every frame into one Message the codec owns and reuses: the
// returned message, and every slice it references, is valid only until the
// next Recv. Its strings are ordinary strings and stay valid; strings decoded
// on one codec share the byte slabs they are carved from. Send has copied
// the message out (or written it) by the time it returns.
type Codec struct {
	// Send side, under mu.
	mu    sync.Mutex
	w     io.Writer
	pend  bytes.Buffer // frames sent and not yet written
	holds int          // Holds not yet released by a Flush
	werr  error        // the first failed write; the stream is broken from there
	vecs  [2][]byte    // backing array of out
	out   net.Buffers  // pend and a long payload or frame, written together

	// Receive side, one goroutine.
	br   *bufio.Reader // the only read-ahead on the stream
	rhdr [dataHeaderLen]byte
	body []byte  // a control frame's body, or a data frame's two names
	msg  Message // what every Recv returns
	data []byte  // payload buffer, reused by every Data received
	// Backing arrays of msg's slices, reused by every control frame.
	template, common []string
	files            []FileInfo
	groups           []int
	results          []TaskResult
	// ring holds recently decoded strings; next is where the next new one
	// goes.
	ring [ringSize]string
	next int
	// slab holds the bytes of the strings carved so far, and room for more.
	// A Builder never rewrites the bytes it has handed out, so each string
	// stays valid after the slab is replaced.
	slab strings.Builder

	c io.Closer
}

// NewCodec wraps a stream. If rw also implements io.Closer, Close closes it.
func NewCodec(rw io.ReadWriter) *Codec {
	c := &Codec{w: rw, br: bufio.NewReader(rw)}
	c.c, _ = rw.(io.Closer)
	return c
}

// Send appends one message to the stream as one frame. Outside a hold it has
// written the frame when it returns. Inside one it returns nil once the frame
// is in the send buffer — its write error, if any, comes back from the Flush
// or from a later Send — except that a payload longer than copyThreshold, a
// control frame longer than maxPending, or a buffer grown to maxPending, is
// written at once with everything before it.
func (c *Codec) Send(m *Message) error {
	if !m.Type.valid() {
		return fmt.Errorf("protocol: send of %s message", m.Type)
	}
	if m.Type != TFileData && (m.FileName != "" || m.Offset != 0 || m.Data != nil || m.Last || m.FileSize != 0) {
		return fmt.Errorf("protocol: %s message sets a TFileData field", m.Type)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	var long []byte // goes out after the send buffer, not copied into it
	if m.Type == TFileData {
		if len(m.Data) <= copyThreshold {
			if err := c.reserve(1 + dataHeaderLen + len(m.FileName) + len(m.Worker) + len(m.Data)); err != nil {
				return err
			}
		}
		if err := c.appendDataHeader(m); err != nil {
			return err
		}
		if len(m.Data) <= copyThreshold {
			c.pend.Write(m.Data)
		} else {
			long = m.Data
		}
	} else {
		b := append(c.pend.AvailableBuffer(), frameControl, 0, 0, 0, 0)
		b = appendBody(b, m)
		n := len(b) - 1 - controlHeaderLen
		if n > MaxControl {
			return fmt.Errorf("protocol: %s body of %d bytes exceeds MaxControl", m.Type, n)
		}
		binary.BigEndian.PutUint32(b[1:], uint32(n))
		if len(b) > maxPending {
			// Written from where it was built, like a long payload: a
			// MASTER_DONE of many results would otherwise be copied once
			// more and leave the send buffer that large.
			long = b
		} else {
			// b may lie in the buffer's spare room, which reserve's write
			// or growth leaves in place for the copy.
			if err := c.reserve(len(b)); err != nil {
				return err
			}
			c.pend.Write(b)
		}
	}
	if long == nil && c.holds > 0 && c.pend.Len() < maxPending {
		return nil
	}
	return c.writeLocked(long)
}

// Hold makes the Sends that follow collect in the send buffer until Flush.
// Holds nest by count: several senders may hold one codec at a time.
func (c *Codec) Hold() {
	c.mu.Lock()
	c.holds++
	c.mu.Unlock()
}

// Flush releases one Hold. The release of the last one writes the send buffer
// in a single write to the stream. It returns the error of that write, or of
// an earlier write that failed since.
func (c *Codec) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holds > 0 {
		c.holds--
	}
	if c.holds > 0 || c.werr != nil {
		return c.werr
	}
	return c.writeLocked(nil)
}

// reserve makes room in the send buffer for a frame of n bytes, n at most
// maxPending. While the buffer fits in maxPending it grows as bytes.Buffer
// grows it, and past a quarter of maxPending in one step to maxPending;
// beyond that, what it holds is written first. So a buffer never outgrows
// maxPending, and one that fills up to it, as a deep window's refill does,
// costs one allocation of maxPending and not a doubling chain to twice
// that.
func (c *Codec) reserve(n int) error {
	switch l := c.pend.Len(); {
	case l+n <= c.pend.Cap():
	case l+n > maxPending:
		return c.writeLocked(nil)
	case l+n > maxPending/4:
		c.pend.Grow(maxPending - l)
	}
	return nil
}

// writeLocked writes the send buffer, and long after it when set, and empties
// the buffer. A failure is remembered: part of a frame may be on the stream.
func (c *Codec) writeLocked(long []byte) error {
	var err error
	switch {
	case long != nil:
		c.vecs[0], c.vecs[1] = c.pend.Bytes(), long
		c.out = c.vecs[:2]
		_, err = c.out.WriteTo(c.w) // one writev on a socket
		c.vecs[1] = nil             // do not keep the caller's payload alive
	case c.pend.Len() > 0:
		_, err = c.w.Write(c.pend.Bytes())
	}
	c.pend.Reset()
	c.werr = err
	return err
}

// appendDataHeader appends the header of m's data frame, with its names, to
// the send buffer; the payload follows it on the stream.
func (c *Codec) appendDataHeader(m *Message) error {
	if len(m.Data) > MaxChunk {
		return fmt.Errorf("%w: %d bytes of %q", ErrChunkTooLarge, len(m.Data), m.FileName)
	}
	if len(m.FileName) > MaxName || len(m.Worker) > MaxName {
		return fmt.Errorf("%w: file name of %d bytes, worker name of %d", ErrNameTooLong, len(m.FileName), len(m.Worker))
	}
	var flags byte
	if m.Last {
		flags |= flagLast
	}
	c.pend.Grow(1 + dataHeaderLen + len(m.FileName) + len(m.Worker))
	h := append(c.pend.AvailableBuffer(), frameData, flags)
	h = binary.BigEndian.AppendUint16(h, uint16(len(m.FileName)))
	h = binary.BigEndian.AppendUint16(h, uint16(len(m.Worker)))
	h = binary.BigEndian.AppendUint32(h, uint32(len(m.Data)))
	h = binary.BigEndian.AppendUint64(h, uint64(m.Offset))
	h = binary.BigEndian.AppendUint64(h, uint64(m.FileSize))
	h = binary.BigEndian.AppendUint64(h, m.Seq)
	h = append(h, m.FileName...)
	h = append(h, m.Worker...)
	c.pend.Write(h)
	return nil
}

// Recv reads one frame into the codec's message and returns it; the message
// is valid until the next Recv. At the end of the stream Recv returns io.EOF
// between frames and ErrTruncated inside one; bytes that are not a frame are
// ErrBadFrame, ErrChunkTooLarge or ErrNameTooLong; an error of the stream
// itself is returned as it is.
func (c *Codec) Recv() (*Message, error) {
	tag, err := c.br.ReadByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case frameControl:
		return c.recvControl()
	case frameData:
		return c.recvData()
	default:
		return nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrBadFrame, tag)
	}
}

// Buffered reports whether the read-ahead holds a whole frame, so that the
// next Recv returns without reading the stream. A frame of an unknown tag
// counts as whole: Recv fails on it without a read. Like Recv it belongs to
// the receiving goroutine.
func (c *Codec) Buffered() bool {
	n := c.br.Buffered()
	if n == 0 {
		return false
	}
	b, _ := c.br.Peek(min(n, 1+dataHeaderLen)) // buffered bytes: no read
	need := 1 + dataHeaderLen
	switch b[0] {
	case frameControl:
		if len(b) < 1+controlHeaderLen {
			return false
		}
		need = 1 + controlHeaderLen + int(binary.BigEndian.Uint32(b[1:]))
	case frameData:
		if len(b) < need {
			return false
		}
		h := b[1:]
		need += int(binary.BigEndian.Uint16(h[1:])) + int(binary.BigEndian.Uint16(h[3:])) + int(binary.BigEndian.Uint32(h[5:]))
	default:
		return true
	}
	return n >= need
}

// readFull fills p from the stream; running out of stream is ErrTruncated.
func (c *Codec) readFull(p []byte) error {
	if _, err := io.ReadFull(c.br, p); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: %w", ErrTruncated, io.ErrUnexpectedEOF)
		}
		return err
	}
	return nil
}

// readBody reads n bytes into the body buffer. The buffer grows with the
// bytes that arrive, at most doubling, never to the length a frame claims, so
// a frame that claims MaxControl and stops short costs what it sent.
func (c *Codec) readBody(n int) ([]byte, error) {
	b := c.body[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), 4096)))
		}
		next := min(n, cap(b))
		if err := c.readFull(b[len(b):next]); err != nil {
			return nil, err
		}
		b = b[:next]
	}
	c.body = b
	return b, nil
}

// recvControl reads the rest of a control frame, the tag being consumed.
func (c *Codec) recvControl() (*Message, error) {
	h := c.rhdr[:controlHeaderLen]
	if err := c.readFull(h); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(h)
	if n > MaxControl {
		return nil, fmt.Errorf("%w: control frame claims %d bytes", ErrBadFrame, n)
	}
	body, err := c.readBody(int(n))
	if err != nil {
		return nil, err
	}
	d := decoder{b: body, c: c}
	d.message(&c.msg)
	if d.bad != "" {
		return nil, fmt.Errorf("%w: %s", ErrBadFrame, d.bad)
	}
	return &c.msg, nil
}

// recvData reads the rest of a data frame, the tag being consumed. Every
// length is checked before it sizes a buffer.
func (c *Codec) recvData() (*Message, error) {
	h := c.rhdr[:]
	if err := c.readFull(h); err != nil {
		return nil, err
	}
	flags := h[0]
	nameLen := int(binary.BigEndian.Uint16(h[1:]))
	workLen := int(binary.BigEndian.Uint16(h[3:]))
	dataLen := int64(binary.BigEndian.Uint32(h[5:]))
	offset := int64(binary.BigEndian.Uint64(h[9:]))
	fileSize := int64(binary.BigEndian.Uint64(h[17:]))
	seq := binary.BigEndian.Uint64(h[25:])
	switch {
	case flags&^flagLast != 0:
		return nil, fmt.Errorf("%w: flags 0x%02x", ErrBadFrame, flags)
	case nameLen > MaxName || workLen > MaxName:
		return nil, fmt.Errorf("%w: frame claims names of %d and %d bytes", ErrNameTooLong, nameLen, workLen)
	case dataLen > MaxChunk:
		return nil, fmt.Errorf("%w: frame claims %d bytes", ErrChunkTooLarge, dataLen)
	case offset < 0 || fileSize < 0:
		return nil, fmt.Errorf("%w: offset %d, file size %d", ErrBadFrame, offset, fileSize)
	}

	names, err := c.readBody(nameLen + workLen)
	if err != nil {
		return nil, err
	}
	m := &c.msg
	*m = Message{
		Type: TFileData, FileName: c.intern(names[:nameLen]), Worker: c.intern(names[nameLen:]),
		Offset: offset, FileSize: fileSize, Last: flags&flagLast != 0, Seq: seq,
	}
	if dataLen > 0 {
		if cap(c.data) < int(dataLen) {
			c.data = make([]byte, dataLen)
		}
		m.Data = c.data[:dataLen]
		if err := c.readFull(m.Data); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// intern returns b as a string: one from the ring when it holds b, else a
// new one, which replaces the ring's oldest. A new string is carved from the
// slab when it is short, else allocated.
func (c *Codec) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	for _, s := range c.ring {
		if s == string(b) {
			return s
		}
	}
	var s string
	if len(b) > maxCarve {
		s = string(b)
	} else {
		if c.slab.Cap()-c.slab.Len() < len(b) {
			size := min(max(2*c.slab.Cap(), firstSlab), maxSlab)
			c.slab.Reset() // the strings already carved keep the old slab
			c.slab.Grow(size)
		}
		at := c.slab.Len()
		c.slab.Write(b)
		s = c.slab.String()[at:]
	}
	c.ring[c.next] = s
	c.next = (c.next + 1) % ringSize
	return s
}

// Close closes the underlying stream when it is closable.
func (c *Codec) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// --- Control-frame body ---

// appendBody appends m's control body to b: the type, the presence mask and
// the fields that are not zero. Each field sets its bit as it is appended;
// the mask goes last into the four bytes kept for it.
func appendBody(b []byte, m *Message) []byte {
	b = append(b, byte(m.Type), 0, 0, 0, 0)
	at := len(b) - 4
	var mask uint32
	has := func(bit uint32, present bool) bool {
		if present {
			mask |= bit
		}
		return present
	}
	if has(fieldWorker, m.Worker != "") {
		b = appendString(b, m.Worker)
	}
	if has(fieldCores, m.Cores != 0) {
		b = binary.AppendVarint(b, int64(m.Cores))
	}
	has(fieldReturnOutputs, m.ReturnOutputs)
	if has(fieldExpectFiles, m.ExpectFiles != 0) {
		b = binary.AppendVarint(b, int64(m.ExpectFiles))
	}
	// The strategy goes into b's spare room and stays only if any of it is
	// set: its own mask byte, the first it appends, says so.
	if s := appendStrategy(b, &m.Strategy); has(fieldStrategy, s[len(b)] != 0) {
		b = s
	}
	if has(fieldTemplate, len(m.Template) > 0) {
		b = appendStrings(b, m.Template)
	}
	if has(fieldWorkers, m.Workers != 0) {
		b = binary.AppendVarint(b, int64(m.Workers))
	}
	if has(fieldFiles, len(m.Files) > 0) {
		b = binary.AppendUvarint(b, uint64(len(m.Files)))
		for _, f := range m.Files {
			b = appendString(b, f.Name)
			b = binary.AppendVarint(b, f.Size)
		}
	}
	if has(fieldGroupIndex, m.GroupIndex != 0) {
		b = binary.AppendVarint(b, int64(m.GroupIndex))
	}
	if has(fieldGroups, len(m.Groups) > 0) {
		b = binary.AppendUvarint(b, uint64(len(m.Groups)))
		for _, g := range m.Groups {
			b = binary.AppendVarint(b, int64(g))
		}
	}
	if has(fieldResult, m.Result != TaskResult{}) {
		b = appendResult(b, &m.Result)
	}
	if has(fieldResults, len(m.Results) > 0) {
		b = binary.AppendUvarint(b, uint64(len(m.Results)))
		for i := range m.Results {
			b = appendResult(b, &m.Results[i])
		}
	}
	if has(fieldBytesMoved, m.BytesMoved != 0) {
		b = binary.AppendVarint(b, m.BytesMoved)
	}
	if has(fieldMakespanSec, m.MakespanSec != 0) {
		b = appendFloat(b, m.MakespanSec)
	}
	if has(fieldTransferPhaseSec, m.TransferPhaseSec != 0) {
		b = appendFloat(b, m.TransferPhaseSec)
	}
	if has(fieldOutputBytes, m.OutputBytes != 0) {
		b = binary.AppendVarint(b, m.OutputBytes)
	}
	if has(fieldError, m.Error != "") {
		b = appendString(b, m.Error)
	}
	if has(fieldSeq, m.Seq != 0) {
		b = binary.AppendUvarint(b, m.Seq)
	}
	binary.LittleEndian.PutUint32(b[at:], mask)
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendResult appends r's mask byte and its fields that are not zero.
func appendResult(b []byte, r *TaskResult) []byte {
	b = append(b, 0)
	at := len(b) - 1
	has := func(bit byte, present bool) bool {
		if present {
			b[at] |= bit
		}
		return present
	}
	if has(resultGroupIndex, r.GroupIndex != 0) {
		b = binary.AppendVarint(b, int64(r.GroupIndex))
	}
	if has(resultWorker, r.Worker != "") {
		b = appendString(b, r.Worker)
	}
	has(resultOK, r.OK)
	if has(resultError, r.Error != "") {
		b = appendString(b, r.Error)
	}
	if has(resultDurationSec, r.DurationSec != 0) {
		b = appendFloat(b, r.DurationSec)
	}
	if has(resultOutput, r.Output != "") {
		b = appendString(b, r.Output)
	}
	return b
}

// appendStrategy appends s's mask byte and its fields that are not zero.
func appendStrategy(b []byte, s *strategy.Config) []byte {
	b = append(b, 0)
	at := len(b) - 1
	has := func(bit byte, present bool) bool {
		if present {
			b[at] |= bit
		}
		return present
	}
	if has(stratKind, s.Kind != 0) {
		b = binary.AppendVarint(b, int64(s.Kind))
	}
	if has(stratLocality, s.Locality != 0) {
		b = binary.AppendVarint(b, int64(s.Locality))
	}
	if has(stratPlacement, s.Placement != 0) {
		b = binary.AppendVarint(b, int64(s.Placement))
	}
	if has(stratGrouping, s.Grouping != "") {
		b = appendString(b, s.Grouping)
	}
	if has(stratAssigner, s.Assigner != "") {
		b = appendString(b, s.Assigner)
	}
	has(stratMulticore, s.Multicore)
	if has(stratPrefetch, s.Prefetch != 0) {
		b = binary.AppendVarint(b, int64(s.Prefetch))
	}
	if has(stratCommonFiles, len(s.CommonFiles) > 0) {
		b = appendStrings(b, s.CommonFiles)
	}
	return b
}

// decoder reads one control body. The first failure is kept in bad and
// every read after it returns zero, so the decode runs to its end and is
// checked once.
type decoder struct {
	b   []byte // what is left of the body
	c   *Codec // the backing arrays and the string ring
	bad string
}

func (d *decoder) fail(what string) {
	if d.bad == "" {
		d.bad = what
	}
	d.b = nil
}

func (d *decoder) u8() byte {
	if len(d.b) == 0 {
		d.fail("body ends inside a field")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if len(d.b) < 4 {
		d.fail("body ends inside the mask")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// integer reads a varint that must fit an int.
func (d *decoder) integer() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer overflows int")
		return 0
	}
	return int(v)
}

// count reads a length or an element count whose elements take at least
// size bytes each, and refuses one the rest of the body cannot hold.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail(fmt.Sprintf("count %d over-claims the %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

// str reads a length-prefixed string through the codec's ring.
func (d *decoder) str() string {
	n := d.count(1)
	s := d.c.intern(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("body ends inside a float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// strs reads a string list into buf's backing array.
func (d *decoder) strs(buf *[]string) []string {
	n := d.count(1)
	ss := (*buf)[:0]
	for i := 0; i < n; i++ {
		ss = append(ss, d.str())
	}
	*buf = ss
	return nonEmpty(ss)
}

// nonEmpty is s, or nil when s is empty, as the sender's zero slice was.
func nonEmpty[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

// message decodes the whole body into m, which it overwrites.
func (d *decoder) message(m *Message) {
	c := d.c
	*m = Message{Type: Type(d.u8())}
	if !m.Type.valid() || m.Type == TFileData {
		d.fail(fmt.Sprintf("control frame carrying %s", m.Type))
		return
	}
	mask := d.u32()
	if mask&^fieldsAll != 0 {
		d.fail(fmt.Sprintf("unknown field bits %#x", mask&^fieldsAll))
		return
	}
	if mask&fieldWorker != 0 {
		m.Worker = d.str()
	}
	if mask&fieldCores != 0 {
		m.Cores = d.integer()
	}
	m.ReturnOutputs = mask&fieldReturnOutputs != 0
	if mask&fieldExpectFiles != 0 {
		m.ExpectFiles = d.integer()
	}
	if mask&fieldStrategy != 0 {
		d.strategy(&m.Strategy)
	}
	if mask&fieldTemplate != 0 {
		m.Template = d.strs(&c.template)
	}
	if mask&fieldWorkers != 0 {
		m.Workers = d.integer()
	}
	if mask&fieldFiles != 0 {
		n := d.count(2)
		fs := c.files[:0]
		for i := 0; i < n; i++ {
			fs = append(fs, FileInfo{Name: d.str(), Size: d.varint()})
		}
		c.files = fs
		m.Files = nonEmpty(fs)
	}
	if mask&fieldGroupIndex != 0 {
		m.GroupIndex = d.integer()
	}
	if mask&fieldGroups != 0 {
		n := d.count(1)
		gs := c.groups[:0]
		for i := 0; i < n; i++ {
			gs = append(gs, d.integer())
		}
		c.groups = gs
		m.Groups = nonEmpty(gs)
	}
	if mask&fieldResult != 0 {
		d.result(&m.Result)
	}
	if mask&fieldResults != 0 {
		n := d.count(1)
		rs := c.results[:0]
		for i := 0; i < n; i++ {
			rs = append(rs, TaskResult{})
			d.result(&rs[i])
		}
		c.results = rs
		m.Results = nonEmpty(rs)
	}
	if mask&fieldBytesMoved != 0 {
		m.BytesMoved = d.varint()
	}
	if mask&fieldMakespanSec != 0 {
		m.MakespanSec = d.float()
	}
	if mask&fieldTransferPhaseSec != 0 {
		m.TransferPhaseSec = d.float()
	}
	if mask&fieldOutputBytes != 0 {
		m.OutputBytes = d.varint()
	}
	if mask&fieldError != 0 {
		m.Error = d.str()
	}
	if mask&fieldSeq != 0 {
		m.Seq = d.uvarint()
	}
	if len(d.b) > 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
}

func (d *decoder) result(r *TaskResult) {
	mask := d.u8()
	if mask&^resultsAll != 0 {
		d.fail(fmt.Sprintf("unknown result bits %#x", mask&^resultsAll))
		return
	}
	if mask&resultGroupIndex != 0 {
		r.GroupIndex = d.integer()
	}
	if mask&resultWorker != 0 {
		r.Worker = d.str()
	}
	r.OK = mask&resultOK != 0
	if mask&resultError != 0 {
		r.Error = d.str()
	}
	if mask&resultDurationSec != 0 {
		r.DurationSec = d.float()
	}
	if mask&resultOutput != 0 {
		r.Output = d.str()
	}
}

func (d *decoder) strategy(s *strategy.Config) {
	mask := d.u8()
	if mask&stratKind != 0 {
		s.Kind = strategy.Kind(d.integer())
	}
	if mask&stratLocality != 0 {
		s.Locality = strategy.Locality(d.integer())
	}
	if mask&stratPlacement != 0 {
		s.Placement = strategy.Placement(d.integer())
	}
	if mask&stratGrouping != 0 {
		s.Grouping = d.str()
	}
	if mask&stratAssigner != 0 {
		s.Assigner = d.str()
	}
	s.Multicore = mask&stratMulticore != 0
	if mask&stratPrefetch != 0 {
		s.Prefetch = d.integer()
	}
	if mask&stratCommonFiles != 0 {
		s.CommonFiles = d.strs(&d.c.common)
	}
}
