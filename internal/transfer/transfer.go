// Package transfer is the real runtime's file mover: the one chunk loop that
// turns a file into ordered TFileData messages — the scp-like single stream
// the paper's prototype used, which the master (inputs to workers) and the
// workers (outputs to the master) both call.
package transfer

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// DefaultChunk is the per-message payload size. 256 KiB balances framing
// overhead against scheduling granularity, like scp's internal buffering in
// the paper's prototype.
const DefaultChunk = 256 << 10

// ErrSizeMismatch reports a source that ended short of, or ran past, the size
// the file was announced with. The transfer stops before its Last chunk, so
// the receiver never takes the file for complete.
var ErrSizeMismatch = errors.New("transfer: source does not match the announced size")

// File names one file to send.
type File struct {
	// Name is the file's name at the receiver.
	Name string
	// Worker, when set, is stamped on every chunk (a worker returning an
	// output names itself).
	Worker string
	// Size is the file's size as the catalogue has it: announced to the
	// receiver and enforced on the source.
	Size int64
}

// scratch is what the chunk loop reuses from file to file: the message every
// chunk is sent from, and the read buffer that serves every chunk over a
// connection that has copied a chunk out by the time Send returns.
type scratch struct {
	msg protocol.Message
	buf []byte
}

// scratches recycles the chunk loop's scratch between files.
var scratches sync.Pool

// Send streams the f.Size bytes of r over conn as ordered TFileData chunks of
// at most chunk bytes. Every chunk announces f.Size; Last rides the final
// payload chunk, and an empty file is one empty Last chunk. It returns the
// payload bytes sent. A source shorter or longer than f.Size fails with
// ErrSizeMismatch before Last is sent.
//
// No buffer is larger than the file. One pooled message serves every chunk.
// Over a connection that copies (transport.Conn.SendCopies) one pooled
// buffer does too; over one that does not, each chunk is read into a buffer
// of its own, which travels to the receiver.
func Send(conn transport.Conn, f File, r io.Reader, chunk int) (int64, error) {
	return send(conn, f, nil, r, chunk)
}

// SendBytes is Send for a file whose bytes are already in memory: chunks are
// sub-slices of data and nothing is copied here. Under the ownership rule of
// transport.Conn the caller must not modify data afterwards.
func SendBytes(conn transport.Conn, f File, data []byte, chunk int) (int64, error) {
	if int64(len(data)) != f.Size {
		return 0, fmt.Errorf("%w: %s holds %d bytes, announced %d", ErrSizeMismatch, f.Name, len(data), f.Size)
	}
	return send(conn, f, data, nil, chunk)
}

// send is the chunk loop. The file comes from data when r is nil.
func send(conn transport.Conn, f File, data []byte, r io.Reader, chunk int) (int64, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if f.Size < 0 {
		return 0, fmt.Errorf("%w: %s announced with %d bytes", ErrSizeMismatch, f.Name, f.Size)
	}
	s, _ := scratches.Get().(*scratch)
	if s == nil {
		s = new(scratch)
	}
	defer func() {
		s.msg = protocol.Message{} // keep no payload or name alive in the pool
		scratches.Put(s)
	}()
	var pooled []byte
	if r != nil && conn.SendCopies() {
		// Read buffers have one byte more than the chunk: the read of the
		// last chunk asks for it, and a source that has it to give runs
		// past f.Size.
		if room := int(min(f.Size, int64(chunk))) + 1; cap(s.buf) < room {
			s.buf = make([]byte, room)
		}
		pooled = s.buf[:cap(s.buf)]
	}
	var sent int64
	for {
		n := int(min(f.Size-sent, int64(chunk)))
		last := sent+int64(n) == f.Size
		var payload []byte
		if r == nil {
			payload = data[sent : sent+int64(n)]
		} else {
			want := n
			if last {
				want++
			}
			buf := pooled
			if buf == nil {
				buf = make([]byte, want)
			}
			got, err := io.ReadFull(r, buf[:want])
			switch {
			case err == nil && last:
				return sent, fmt.Errorf("%w: %s runs past its %d bytes", ErrSizeMismatch, f.Name, f.Size)
			case err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF):
				return sent, fmt.Errorf("reading %s: %w", f.Name, err)
			case got < n:
				return sent, fmt.Errorf("%w: %s ended at %d of %d bytes", ErrSizeMismatch, f.Name, sent+int64(got), f.Size)
			}
			payload = buf[:n]
		}
		s.msg = protocol.Message{
			Type: protocol.TFileData, FileName: f.Name, Worker: f.Worker,
			Offset: sent, FileSize: f.Size, Data: payload, Last: last,
		}
		if err := conn.Send(&s.msg); err != nil {
			return sent, err
		}
		sent += int64(n)
		if last {
			return sent, nil
		}
	}
}
