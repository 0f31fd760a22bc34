// Package transfer is the real runtime's file mover: the one chunk loop that
// turns a file into ordered TFileData messages — the scp-like single stream
// the paper's prototype used, which the master (inputs to workers) and the
// workers (outputs to the master) both call — and a GridFTP-like striped
// protocol (the paper's stated future work) that splits a file across several
// connections. Striping buys nothing on an uncontended path — k fair-share
// flows of size/k finish together — but claims k shares of a contended link,
// which is exactly GridFTP's advantage on shared wide-area networks.
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

// chunkBufs recycles read buffers between the files sent over connections
// that have copied a chunk out by the time Send returns.
var chunkBufs sync.Pool

// Send streams the f.Size bytes of r over conn as ordered TFileData chunks of
// at most chunk bytes. Every chunk announces f.Size; Last rides the final
// payload chunk, and an empty file is one empty Last chunk. It returns the
// payload bytes sent. A source shorter or longer than f.Size fails with
// ErrSizeMismatch before Last is sent.
//
// No buffer is larger than the file. Over a connection that copies
// (transport.Conn.SendCopies) one pooled buffer serves every chunk; over one
// that does not, each chunk is read into a buffer of its own that travels
// with the message.
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
	var pooled []byte
	if r != nil && conn.SendCopies() {
		// Read buffers have one byte more than the chunk: the read of the
		// last chunk asks for it, and a source that has it to give runs
		// past f.Size.
		room := int(min(f.Size, int64(chunk))) + 1
		buf, _ := chunkBufs.Get().(*[]byte)
		if buf == nil || cap(*buf) < room {
			b := make([]byte, room)
			buf = &b
		}
		defer chunkBufs.Put(buf)
		pooled = (*buf)[:cap(*buf)]
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
		if err := conn.Send(&protocol.Message{
			Type: protocol.TFileData, FileName: f.Name, Worker: f.Worker,
			Offset: sent, FileSize: f.Size, Data: payload, Last: last,
		}); err != nil {
			return sent, err
		}
		sent += int64(n)
		if last {
			return sent, nil
		}
	}
}

// SendStriped splits data across conns round-robin in chunk-sized blocks,
// GridFTP-style. Chunks carry explicit offsets so the receiver reassembles
// out-of-order arrivals; each stripe marks its own final chunk, and the
// leading metadata message carries the total size so the receiver knows
// when the file is whole. Chunks are sub-slices of data: under the ownership
// rule of transport.Conn the caller must not modify data afterwards.
func SendStriped(conns []transport.Conn, name string, data []byte, chunk int) error {
	if len(conns) == 0 {
		return fmt.Errorf("transfer: no stripe connections")
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if err := conns[0].Send(&protocol.Message{
		Type:  protocol.TFileMetadata,
		Files: []protocol.FileInfo{{Name: name, Size: int64(len(data))}},
	}); err != nil {
		return err
	}
	// Empty file: every stripe still terminates explicitly so receivers
	// reading per-connection streams see a final chunk.
	if len(data) == 0 {
		for _, conn := range conns {
			if err := conn.Send(&protocol.Message{
				Type: protocol.TFileData, FileName: name, Last: true,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	// Partition chunk offsets across stripes.
	type block struct {
		off  int64
		data []byte
	}
	stripes := make([][]block, len(conns))
	for off, si := 0, 0; off < len(data); off, si = off+chunk, si+1 {
		end := min(off+chunk, len(data))
		s := si % len(conns)
		stripes[s] = append(stripes[s], block{off: int64(off), data: data[off:end]})
	}
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn transport.Conn, blocks []block) {
			defer wg.Done()
			if len(blocks) == 0 {
				// Short payloads can leave a stripe empty; terminate it
				// explicitly so its receiver does not wait forever.
				errs[i] = conn.Send(&protocol.Message{
					Type: protocol.TFileData, FileName: name, Last: true,
				})
				return
			}
			for bi, b := range blocks {
				if err := conn.Send(&protocol.Message{
					Type: protocol.TFileData, FileName: name, Offset: b.off,
					FileSize: int64(len(data)), Data: b.data, Last: bi == len(blocks)-1,
				}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, conn, stripes[i])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Reassembler collects possibly out-of-order chunks of one file announced
// by a TFileMetadata message. It is safe for concurrent use (stripes arrive
// on several connections).
type Reassembler struct {
	mu       sync.Mutex
	name     string
	size     int64
	buf      []byte
	received int64
	sized    bool
}

// NewReassembler starts an empty reassembly for the named file.
func NewReassembler(name string) *Reassembler {
	return &Reassembler{name: name}
}

// HandleMetadata records the announced total size.
func (r *Reassembler) HandleMetadata(m *protocol.Message) error {
	for _, f := range m.Files {
		if f.Name != r.name {
			continue
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if f.Size < 0 {
			return fmt.Errorf("transfer: negative size for %q", r.name)
		}
		r.size = f.Size
		r.sized = true
		if int64(len(r.buf)) < f.Size {
			grown := make([]byte, f.Size)
			copy(grown, r.buf)
			r.buf = grown
		}
		return nil
	}
	return fmt.Errorf("transfer: metadata does not mention %q", r.name)
}

// HandleChunk absorbs one TFileData message. Overlapping offsets are
// rejected only when they disagree with prior content.
func (r *Reassembler) HandleChunk(m *protocol.Message) error {
	if m.FileName != r.name {
		return fmt.Errorf("transfer: chunk for %q, reassembling %q", m.FileName, r.name)
	}
	if m.Offset < 0 {
		return fmt.Errorf("transfer: negative offset")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	end := m.Offset + int64(len(m.Data))
	if int64(len(r.buf)) < end {
		grown := make([]byte, end)
		copy(grown, r.buf)
		r.buf = grown
	}
	copy(r.buf[m.Offset:end], m.Data)
	r.received += int64(len(m.Data))
	return nil
}

// Complete reports whether every announced byte arrived.
func (r *Reassembler) Complete() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sized && r.received >= r.size
}

// Bytes returns the assembled contents; valid once Complete.
func (r *Reassembler) Bytes() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sized {
		return nil, fmt.Errorf("transfer: %q has no metadata yet", r.name)
	}
	if r.received < r.size {
		return nil, fmt.Errorf("transfer: %q incomplete: %d of %d bytes", r.name, r.received, r.size)
	}
	return r.buf[:r.size], nil
}
