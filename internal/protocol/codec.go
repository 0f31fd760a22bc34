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

// Codec frames messages over a stream. Send is safe for concurrent use; Recv
// must be called from a single goroutine.
//
// Recv reads a TFileData payload into a buffer the codec owns and reuses: the
// returned message's Data is valid only until the next Recv. Send has copied
// the message out (or written it) by the time it returns.
type Codec struct {
	// Send side, under mu.
	mu   sync.Mutex
	w    io.Writer
	enc  *gob.Encoder // encodes into ctrl
	ctrl bytes.Buffer // one control frame: tag, then gob's bytes
	hdr  []byte       // one data-frame header with its names
	vecs [2][]byte    // backing array of out
	out  net.Buffers  // header and payload of the data frame being written

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
	c.enc = gob.NewEncoder(&c.ctrl)
	c.src.r = rw
	c.br = bufio.NewReader(&c.src)
	// br is an io.ByteReader, so gob reads exactly its own bytes from it and
	// data frames can follow control frames on the same stream.
	c.dec = gob.NewDecoder(c.br)
	return c
}

// Send writes one message as one frame, in a single write to the stream.
func (c *Codec) Send(m *Message) error {
	if m.Type == TInvalid {
		return fmt.Errorf("protocol: send of TInvalid message")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Type == TFileData {
		return c.sendData(m)
	}
	c.ctrl.Reset()
	c.ctrl.WriteByte(frameControl)
	if err := c.enc.Encode(m); err != nil {
		return err
	}
	_, err := c.w.Write(c.ctrl.Bytes())
	return err
}

// sendData writes a TFileData frame: header and payload go out together
// (one writev on a socket) and the payload is not copied on the way.
func (c *Codec) sendData(m *Message) error {
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
	h := append(c.hdr[:0], frameData, flags)
	h = binary.BigEndian.AppendUint16(h, uint16(len(m.FileName)))
	h = binary.BigEndian.AppendUint16(h, uint16(len(m.Worker)))
	h = binary.BigEndian.AppendUint32(h, uint32(len(m.Data)))
	h = binary.BigEndian.AppendUint64(h, uint64(m.Offset))
	h = binary.BigEndian.AppendUint64(h, uint64(m.FileSize))
	h = binary.BigEndian.AppendUint64(h, m.Seq)
	h = append(h, m.FileName...)
	h = append(h, m.Worker...)
	c.hdr = h

	c.vecs[0], c.vecs[1] = h, m.Data
	c.out = c.vecs[:2]
	_, err := c.out.WriteTo(c.w)
	c.vecs[1] = nil // do not keep the caller's payload alive
	return err
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
