package transfer

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"frieda/internal/protocol"
	"frieda/internal/transport"
	"frieda/internal/transport/transporttest"
)

// pipePair returns two connected in-memory endpoints.
func pipePair(t *testing.T) (client, server transport.Conn) {
	t.Helper()
	tr := transport.NewMem(nil)
	l, err := tr.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := tr.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	return c, <-accepted
}

// recvFile collects one file's chunks from conn until Last, checking that
// they arrive in order; it returns the payload and a copy of every chunk's
// header.
func recvFile(t *testing.T, conn transport.Conn, name string) (data []byte, chunks []*protocol.Message) {
	t.Helper()
	for {
		m, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv after %d chunks: %v", len(chunks), err)
		}
		if m.Type != protocol.TFileData || m.FileName != name {
			t.Fatalf("unexpected %s for %q", m.Type, m.FileName)
		}
		if m.Offset != int64(len(data)) {
			t.Fatalf("chunk %d at offset %d, have %d bytes", len(chunks), m.Offset, len(data))
		}
		data = append(data, m.Data...)
		// A received message is the connection's until the next Recv: keep
		// a copy of its header, its payload is in data.
		header := *m
		header.Data = nil
		chunks = append(chunks, &header)
		if m.Last {
			return data, chunks
		}
	}
}

func TestSendReceiveSingleStream(t *testing.T) {
	client, server := pipePair(t)
	defer client.Close()
	payload := bytes.Repeat([]byte("0123456789abcdef"), 10_000) // 160 KB
	go func() {
		f := File{Name: "data.bin", Worker: "w7", Size: int64(len(payload))}
		if n, err := Send(client, f, bytes.NewReader(payload), 4096); err != nil || n != f.Size {
			t.Errorf("Send = %d, %v", n, err)
		}
	}()
	got, chunks := recvFile(t, server, "data.bin")
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if want := (len(payload) + 4095) / 4096; len(chunks) != want {
		t.Fatalf("%d chunks, want %d", len(chunks), want)
	}
	for _, m := range chunks {
		if m.FileSize != int64(len(payload)) || m.Worker != "w7" {
			t.Fatalf("chunk at %d announces size %d, worker %q", m.Offset, m.FileSize, m.Worker)
		}
	}
}

func TestSendEmptyFile(t *testing.T) {
	client, server := pipePair(t)
	defer client.Close()
	go func() {
		if _, err := Send(client, File{Name: "empty"}, strings.NewReader(""), 0); err != nil {
			t.Error(err)
		}
	}()
	got, chunks := recvFile(t, server, "empty")
	if len(got) != 0 || len(chunks) != 1 {
		t.Fatalf("empty file arrived as %d bytes in %d chunks", len(got), len(chunks))
	}
}

// eachConnPair runs fn over a connected pair of both transports, wrapped in
// the ownership checker: received payloads are poisoned at the next Recv and
// sent ones are CRC-checked on delivery.
func eachConnPair(t *testing.T, fn func(t *testing.T, client, server transport.Conn)) {
	for name, mk := range map[string]func() (transport.Transport, string){
		"mem": func() (transport.Transport, string) { return transport.NewMem(nil), "x" },
		"tcp": func() (transport.Transport, string) { return transport.NewTCP(), "127.0.0.1:0" },
	} {
		t.Run(name, func(t *testing.T) {
			inner, addr := mk()
			tr := transporttest.NewOwnership(inner)
			l, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan transport.Conn, 1)
			go func() {
				if c, err := l.Accept(); err == nil {
					accepted <- c
				}
			}()
			client, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			server := <-accepted
			defer server.Close()
			fn(t, client, server)
			if v := tr.Violations(); len(v) > 0 {
				t.Fatalf("payload changed between Send and delivery: %v", v)
			}
		})
	}
}

// TestSendSizes is the table over file sizes around the chunk boundary: Last
// rides the final payload chunk (no empty terminator), an empty file is one
// empty Last chunk, every chunk announces the total, and no chunk buffer is
// larger than the file.
func TestSendSizes(t *testing.T) {
	const chunk = 1000
	eachConnPair(t, func(t *testing.T, client, server transport.Conn) {
		for _, size := range []int{0, 1, chunk - 1, chunk, chunk + 1, 32 * chunk} {
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i*7 + size)
			}
			for _, fromBytes := range []bool{false, true} {
				name := fmt.Sprintf("f%d-%v", size, fromBytes)
				errc := make(chan error, 1)
				go func() {
					f := File{Name: name, Size: int64(size)}
					var n int64
					var err error
					if fromBytes {
						n, err = SendBytes(client, f, payload, chunk)
					} else {
						n, err = Send(client, f, bytes.NewReader(payload), chunk)
					}
					if err == nil && n != int64(size) {
						err = fmt.Errorf("sent %d of %d bytes", n, size)
					}
					errc <- err
				}()
				got, chunks := recvFile(t, server, name)
				if err := <-errc; err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("%s: payload corrupted", name)
				}
				if want := max(1, (size+chunk-1)/chunk); len(chunks) != want {
					t.Fatalf("%s: %d data messages, want %d", name, len(chunks), want)
				}
				for i, m := range chunks {
					if m.FileSize != int64(size) {
						t.Fatalf("%s: chunk %d announces %d bytes", name, i, m.FileSize)
					}
					if m.Last != (i == len(chunks)-1) {
						t.Fatalf("%s: chunk %d of %d has Last=%v", name, i, len(chunks), m.Last)
					}
				}
			}
		}
	})
}

// Files sent under a hold keep the ownership rule: the pooled read buffer is
// reused for the next chunk while the previous one may still wait in the
// connection's send buffer, so a held Send must have copied its payload — or
// written it — by the time it returns. Chunks on both sides of the codec's copy
// threshold, several files per hold.
func TestSendUnderHold(t *testing.T) {
	eachConnPair(t, func(t *testing.T, client, server transport.Conn) {
		for _, chunk := range []int{700, 40 << 10} {
			var files [][]byte
			for i := 0; i < 5; i++ {
				payload := make([]byte, 3*chunk+i*101)
				for j := range payload {
					payload[j] = byte(j*13 + i + chunk)
				}
				files = append(files, payload)
			}
			errc := make(chan error, 1)
			go func() {
				client.Hold()
				var err error
				for i, payload := range files {
					f := File{Name: fmt.Sprintf("held-%d-%d", chunk, i), Size: int64(len(payload))}
					if _, err = Send(client, f, bytes.NewReader(payload), chunk); err != nil {
						break
					}
				}
				if ferr := client.Flush(); err == nil {
					err = ferr
				}
				errc <- err
			}()
			for i, payload := range files {
				got, _ := recvFile(t, server, fmt.Sprintf("held-%d-%d", chunk, i))
				if !bytes.Equal(got, payload) {
					t.Fatalf("chunk %d: file %d corrupted under a hold", chunk, i)
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
	})
}

// A source that ends short of, or runs past, its announced size fails the
// transfer with ErrSizeMismatch and the receiver never sees a Last chunk.
func TestSendSizeMismatch(t *testing.T) {
	const chunk = 1000
	eachConnPair(t, func(t *testing.T, client, server transport.Conn) {
		cases := []struct {
			name            string
			announced, have int
		}{
			{"short-empty", 10, 0},
			{"short-mid-chunk", 2500, 2400},
			{"short-at-boundary", 3000, 2000},
			{"long-by-one", 2000, 2001},
			{"long-empty", 0, 1},
			{"long-by-chunks", 1000, 5000},
		}
		for _, tc := range cases {
			f := File{Name: tc.name, Size: int64(tc.announced)}
			_, err := Send(client, f, bytes.NewReader(make([]byte, tc.have)), chunk)
			if !errors.Is(err, ErrSizeMismatch) || !errors.Is(err, ErrSource) {
				t.Fatalf("%s: Send = %v, want ErrSizeMismatch, an ErrSource", tc.name, err)
			}
			if _, err := SendBytes(client, f, make([]byte, tc.have), chunk); !errors.Is(err, ErrSizeMismatch) {
				t.Fatalf("%s: SendBytes = %v, want ErrSizeMismatch", tc.name, err)
			}
		}
		// Everything the failed transfers did deliver lacks Last.
		if err := client.Send(&protocol.Message{Type: protocol.TNoMoreData}); err != nil {
			t.Fatal(err)
		}
		for {
			m, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Type == protocol.TNoMoreData {
				return
			}
			if m.Last {
				t.Fatalf("failed transfer of %s delivered a Last chunk at offset %d", m.FileName, m.Offset)
			}
		}
	})
}

// failingReader returns its error after n bytes.
type failingReader struct {
	n   int
	err error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, r.err
	}
	n := min(len(p), r.n)
	r.n -= n
	return n, nil
}

func TestSendReadErrorIsNotASizeMismatch(t *testing.T) {
	client, _ := pipePair(t)
	defer client.Close()
	boom := errors.New("disk on fire")
	_, err := Send(client, File{Name: "f", Size: 100}, &failingReader{n: 40, err: boom}, 10)
	if !errors.Is(err, boom) || !errors.Is(err, ErrSource) || errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("err = %v", err)
	}
}

// A failed send is the connection's, not the source's: no ErrSource.
func TestSendConnErrorIsNotASourceError(t *testing.T) {
	client, _ := pipePair(t)
	client.Close()
	_, err := Send(client, File{Name: "f", Size: 100}, bytes.NewReader(make([]byte, 100)), 10)
	if err == nil || errors.Is(err, ErrSource) {
		t.Fatalf("err = %v", err)
	}
}

// Over a connection that copies, the read buffer is pooled and never larger
// than the file: sending many small files allocates next to nothing.
func TestSendSmallFilesDoNotAllocateChunks(t *testing.T) {
	conn := copyingConn{}
	payload := make([]byte, 1024)
	f := File{Name: "small", Size: int64(len(payload))}
	r := bytes.NewReader(payload)
	perFile := testing.AllocsPerRun(200, func() {
		r.Reset(payload)
		if _, err := Send(conn, f, r, DefaultChunk); err != nil {
			t.Fatal(err)
		}
	})
	// One message per file; the buffer comes from the pool.
	if perFile > 3 {
		t.Fatalf("%.1f allocations per 1 KiB file", perFile)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		r.Reset(payload)
		Send(conn, f, r, DefaultChunk)
	}
	runtime.ReadMemStats(&after)
	if perFile := (after.TotalAlloc - before.TotalAlloc) / 100; perFile > 4096 {
		t.Fatalf("%d bytes allocated per 1 KiB file", perFile)
	}
}

// copyingConn is a sink that, like the TCP connection, is done with a message
// when Send returns.
type copyingConn struct{ transport.Conn }

func (copyingConn) Send(*protocol.Message) error { return nil }
func (copyingConn) SendCopies() bool             { return true }
