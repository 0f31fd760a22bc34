package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Wire format. A stream is a sequence of frames, each opening with one tag
// byte:
//
//	frameControl  one gob-encoded Message follows (every Type but TFileData;
//	              gob delimits it)
//	frameData     a TFileData chunk follows: the fixed header below, then the
//	              file name, the worker name and the raw payload
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

	dataHeaderLen = 1 + 2 + 2 + 4 + 8 + 8 + 8
)

// Bounds on the lengths a data frame may claim. A length read from a stream
// is checked against them before anything is allocated for it.
const (
	// MaxChunk is the largest payload of one TFileData message.
	MaxChunk = 16 << 20
	// MaxName is the longest file or worker name in a TFileData message.
	MaxName = 4096
)

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
	// maxPending is how many bytes may wait in the send buffer: once a held
	// Send has brought it that far, the buffer is written although the hold
	// is not released, so a sender of many small chunks cannot grow it
	// without limit. Four payloads of copyThreshold.
	maxPending = 64 << 10
)

// Errors of the framing layer; match with errors.Is.
var (
	// ErrBadFrame reports bytes that are not a frame: an unknown tag, an
	// impossible header field, a control frame gob cannot decode, or a
	// message type that may not travel in the frame it came in.
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
// Recv reads a TFileData payload into a buffer the codec owns and reuses: the
// returned message's Data is valid only until the next Recv. Send has copied
// the message out (or written it) by the time it returns.
type Codec struct {
	// Send side, under mu.
	mu    sync.Mutex
	w     io.Writer
	enc   *gob.Encoder // encodes into pend
	pend  bytes.Buffer // frames sent and not yet written
	holds int          // Holds not yet released by a Flush
	werr  error        // the first failed write; the stream is broken from there
	vecs  [2][]byte    // backing array of out
	out   net.Buffers  // pend and a long payload, written together

	// Receive side, one goroutine.
	src  readErrRecorder
	br   *bufio.Reader // the only read-ahead on the stream; gob reads through it
	dec  *gob.Decoder
	rhdr [dataHeaderLen]byte
	name []byte // scratch for the two names of a data frame
	data []byte // payload buffer, reused by every data frame
	// The names of the previous data frame: a file's chunks repeat them, so
	// the strings are made once per file, not once per chunk.
	lastFile, lastWorker string

	c io.Closer
}

// readErrRecorder remembers the error the stream under the codec returned
// during the current Recv, so that a failed gob decode can be told apart: the
// stream failed, the stream ended, or the bytes were not gob.
type readErrRecorder struct {
	r   io.Reader
	err error
}

func (r *readErrRecorder) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if err != nil {
		r.err = err
	}
	return n, err
}

// NewCodec wraps a stream. If rw also implements io.Closer, Close closes it.
func NewCodec(rw io.ReadWriter) *Codec {
	c := &Codec{w: rw}
	c.c, _ = rw.(io.Closer)
	c.enc = gob.NewEncoder(&c.pend)
	c.src.r = rw
	c.br = bufio.NewReader(&c.src)
	// br is an io.ByteReader, so gob reads exactly its own bytes from it and
	// data frames can follow control frames on the same stream.
	c.dec = gob.NewDecoder(c.br)
	return c
}

// Send appends one message to the stream as one frame. Outside a hold it has
// written the frame when it returns. Inside one it returns nil once the frame
// is in the send buffer — its write error, if any, comes back from the Flush
// or from a later Send — except that a payload longer than copyThreshold, or
// a buffer grown to maxPending, is written at once with everything before it.
func (c *Codec) Send(m *Message) error {
	if m.Type == TInvalid {
		return fmt.Errorf("protocol: send of TInvalid message")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	var long []byte // a payload that goes out from the caller's slice
	if m.Type == TFileData {
		if err := c.appendDataHeader(m); err != nil {
			return err
		}
		if len(m.Data) <= copyThreshold {
			c.pend.Write(m.Data)
		} else {
			long = m.Data
		}
	} else {
		mark := c.pend.Len()
		c.pend.WriteByte(frameControl)
		if err := c.enc.Encode(m); err != nil {
			c.pend.Truncate(mark)
			return err
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

// Recv reads one frame. At the end of the stream it returns io.EOF between
// frames and ErrTruncated inside one; bytes that are not a frame are
// ErrBadFrame, ErrChunkTooLarge or ErrNameTooLong; an error of the stream
// itself is returned as it is.
func (c *Codec) Recv() (*Message, error) {
	c.src.err = nil
	tag, err := c.br.ReadByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case frameControl:
		m := new(Message)
		if err := c.dec.Decode(m); err != nil {
			return nil, c.decodeErr(err)
		}
		if m.Type == TInvalid || m.Type == TFileData {
			return nil, fmt.Errorf("%w: control frame carrying %s", ErrBadFrame, m.Type)
		}
		return m, nil
	case frameData:
		return c.recvData()
	default:
		return nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrBadFrame, tag)
	}
}

// decodeErr classes a failed gob decode by what the stream did.
func (c *Codec) decodeErr(err error) error {
	switch serr := c.src.err; {
	case serr == nil:
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	case errors.Is(serr, io.EOF) || errors.Is(serr, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: %w", ErrTruncated, io.ErrUnexpectedEOF)
	default:
		return serr
	}
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

	if cap(c.name) < nameLen+workLen {
		c.name = make([]byte, nameLen+workLen)
	}
	names := c.name[:nameLen+workLen]
	if err := c.readFull(names); err != nil {
		return nil, err
	}
	if file := names[:nameLen]; string(file) != c.lastFile {
		c.lastFile = string(file)
	}
	if worker := names[nameLen:]; string(worker) != c.lastWorker {
		c.lastWorker = string(worker)
	}

	m := &Message{
		Type: TFileData, FileName: c.lastFile, Worker: c.lastWorker,
		Offset: offset, FileSize: fileSize, Last: flags&flagLast != 0, Seq: seq,
	}
	if dataLen > 0 {
		if int64(cap(c.data)) < dataLen {
			c.data = make([]byte, dataLen)
		}
		m.Data = c.data[:dataLen]
		if err := c.readFull(m.Data); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Close closes the underlying stream when it is closable.
func (c *Codec) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}
