package transport

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"frieda/internal/protocol"
)

// transports under test, both behind the same interface.
func eachTransport(t *testing.T, fn func(t *testing.T, tr Transport, addr string)) {
	t.Run("mem", func(t *testing.T) {
		fn(t, NewMem(nil), "master")
	})
	t.Run("tcp", func(t *testing.T) {
		fn(t, NewTCP(), "127.0.0.1:0")
	})
}

func TestEcho(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport, addr string) {
		l, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		done := make(chan error, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for {
				m, err := c.Recv()
				if err != nil {
					done <- nil
					return
				}
				m.Worker = "echo:" + m.Worker
				if err := c.Send(m); err != nil {
					done <- err
					return
				}
			}
		}()
		c, err := tr.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := c.Send(&protocol.Message{Type: protocol.TRequestData, Worker: "w", GroupIndex: i}); err != nil {
				t.Fatal(err)
			}
			m, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Worker != "echo:w" || m.GroupIndex != i {
				t.Fatalf("echo %d mangled: %+v", i, m)
			}
		}
		c.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server did not observe close")
		}
	})
}

// An in-memory connection reports a message sent and not yet received.
func TestMemBuffered(t *testing.T) {
	client, server := NewMem(nil).pair("m")
	defer client.Close()
	if server.Buffered() {
		t.Fatal("buffered before any send")
	}
	for i := range 2 {
		if err := client.Send(&protocol.Message{Type: protocol.TRequestData, GroupIndex: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []bool{true, false} {
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
		if server.Buffered() != want {
			t.Fatalf("after %d receives of 2: Buffered() = %v", i+1, !want)
		}
	}
}

// Held sends arrive complete and in order once released, from nested holds and
// from concurrent holders, and a Send outside any hold is delivered without a
// Flush — on the stream transport and on the one where holding is a no-op.
func TestHoldFlush(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport, addr string) {
		l, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		accepted := make(chan Conn, 1)
		go func() {
			if c, err := l.Accept(); err == nil {
				accepted <- c
			}
		}()
		c, err := tr.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		server := <-accepted
		defer server.Close()

		expect := func(worker string, group int) {
			t.Helper()
			m, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Worker != worker || m.GroupIndex != group {
				t.Fatalf("got %s %d, want %s %d", m.Worker, m.GroupIndex, worker, group)
			}
		}
		send := func(worker string, group int) {
			t.Helper()
			if err := c.Send(&protocol.Message{Type: protocol.TTaskStatus, Worker: worker, GroupIndex: group}); err != nil {
				t.Fatal(err)
			}
		}

		c.Hold()
		send("a", 0)
		c.Hold()
		send("a", 1)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		send("a", 2)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			expect("a", i)
		}
		send("a", 3) // no hold: on its way when Send returns
		expect("a", 3)

		const holders, each = 4, 25
		var wg sync.WaitGroup
		for h := 0; h < holders; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				name := string(rune('p' + h))
				for i := 0; i < each; i += 5 {
					c.Hold()
					for j := i; j < i+5; j++ {
						if err := c.Send(&protocol.Message{Type: protocol.TTaskStatus, Worker: name, GroupIndex: j}); err != nil {
							t.Error(err)
						}
					}
					if err := c.Flush(); err != nil {
						t.Error(err)
					}
				}
			}(h)
		}
		next := make(map[string]int)
		for i := 0; i < holders*each; i++ {
			m, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.GroupIndex != next[m.Worker] {
				t.Fatalf("holder %s: message %d arrived, expected %d", m.Worker, m.GroupIndex, next[m.Worker])
			}
			next[m.Worker]++
		}
		wg.Wait()
	})
}

func TestLargePayload(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport, addr string) {
		l, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		payload := make([]byte, 4<<20)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			c.Send(&protocol.Message{Type: protocol.TFileData, Data: payload, Last: true})
		}()
		c, err := tr.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Data) != len(payload) {
			t.Fatalf("payload length %d, want %d", len(m.Data), len(payload))
		}
		for i := 0; i < len(payload); i += 65537 {
			if m.Data[i] != payload[i] {
				t.Fatalf("payload corrupt at %d", i)
			}
		}
	})
}

// A MASTER_DONE of a large run crosses TCP whole: 20,000 results whose
// summaries fill ExecProgram's 4 KiB cap make an 82 MB control frame.
func TestLargeMasterDoneOverTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("the frame and its buffers take about 1 GB under the race detector")
	}
	const groups, summary = 20000, 4096
	tr := NewTCP()
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	output := strings.Repeat("h", summary)
	sent := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			sent <- err
			return
		}
		defer c.Close()
		results := make([]protocol.TaskResult, groups)
		for i := range results {
			results[i] = protocol.TaskResult{GroupIndex: i, Worker: "w" + strconv.Itoa(i%64), OK: true, DurationSec: 1.5, Output: output}
		}
		sent <- c.Send(&protocol.Message{Type: protocol.TMasterDone, Results: results, BytesMoved: 1 << 40, MakespanSec: 3600})
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("send: %v", err)
	}
	if m.Type != protocol.TMasterDone || len(m.Results) != groups || m.BytesMoved != 1<<40 || m.MakespanSec != 3600 {
		t.Fatalf("got %s with %d results, %d bytes moved, makespan %v", m.Type, len(m.Results), m.BytesMoved, m.MakespanSec)
	}
	for i, r := range m.Results {
		if r.GroupIndex != i || r.Worker != "w"+strconv.Itoa(i%64) || !r.OK || r.DurationSec != 1.5 || r.Output != output {
			t.Fatalf("result %d mangled: group %d, worker %q, ok %v, duration %v, %d output bytes", i, r.GroupIndex, r.Worker, r.OK, r.DurationSec, len(r.Output))
		}
	}
}

func TestManyConcurrentConns(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport, addr string) {
		l, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		const n = 16
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				go func(c Conn) {
					defer c.Close()
					for {
						m, err := c.Recv()
						if err != nil {
							return
						}
						c.Send(m)
					}
				}(c)
			}
		}()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := tr.Dial(l.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for j := 0; j < 10; j++ {
					want := i*1000 + j
					if err := c.Send(&protocol.Message{Type: protocol.TRequestData, GroupIndex: want}); err != nil {
						t.Error(err)
						return
					}
					m, err := c.Recv()
					if err != nil {
						t.Error(err)
						return
					}
					if m.GroupIndex != want {
						t.Errorf("conn %d: got %d want %d", i, m.GroupIndex, want)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	})
}

func TestDialUnknownAddr(t *testing.T) {
	if _, err := NewMem(nil).Dial("nowhere"); err == nil {
		t.Fatal("mem dial to unknown address succeeded")
	}
	if _, err := NewTCP().Dial("127.0.0.1:1"); err == nil {
		t.Fatal("tcp dial to closed port succeeded")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport, addr string) {
		l, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := l.Accept()
			errCh <- err
		}()
		time.Sleep(20 * time.Millisecond)
		l.Close()
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked Accept after close = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Accept did not unblock")
		}
		// Master.Serve tells a clean shutdown from a failure by this error.
		if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept on a closed listener = %v, want ErrClosed", err)
		}
	})
}

func TestMemDuplicateListen(t *testing.T) {
	tr := NewMem(nil)
	if _, err := tr.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("a"); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}

func TestMemListenAfterClose(t *testing.T) {
	tr := NewMem(nil)
	l, _ := tr.Listen("a")
	l.Close()
	if _, err := tr.Listen("a"); err != nil {
		t.Fatalf("address not released after close: %v", err)
	}
}

// A connection dialled but not accepted when the listener closes is closed
// with it: its dialer's Recv returns instead of waiting for ever.
func TestMemListenerCloseDropsBacklog(t *testing.T) {
	tr := NewMem(nil)
	l, _ := tr.Listen("x")
	c, err := tr.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on a never-accepted connection = %v, want ErrClosed", err)
	}
}

func TestMemConnCloseUnblocksRecv(t *testing.T) {
	tr := NewMem(nil)
	l, _ := tr.Listen("x")
	go func() {
		c, _ := l.Accept()
		time.Sleep(20 * time.Millisecond)
		c.Close()
	}()
	c, err := tr.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close = %v, want ErrClosed", err)
	}
}

// A Recv blocked when the connection closes returns ErrClosed, as Conn
// documents, whichever side closed it: its own (Close under a blocked Recv)
// or the peer, between frames. A worker's message loop tells a clean end from
// a failure by this error.
func TestConnCloseUnblocksRecv(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr Transport, addr string) {
		for _, local := range []bool{true, false} {
			l, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			accepted := make(chan Conn, 1)
			go func() {
				c, _ := l.Accept()
				accepted <- c
			}()
			c, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			peer := <-accepted
			// One whole frame first: the close lands between frames.
			if err := peer.Send(&protocol.Message{Type: protocol.TAck, Seq: 1}); err != nil {
				t.Fatal(err)
			}
			if m, err := c.Recv(); err != nil || m.Seq != 1 {
				t.Fatalf("local=%v: first Recv = %+v, %v", local, m, err)
			}
			errCh := make(chan error, 1)
			go func() {
				_, err := c.Recv()
				errCh <- err
			}()
			time.Sleep(20 * time.Millisecond)
			if local {
				c.Close()
			} else {
				peer.Close()
			}
			select {
			case err := <-errCh:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("local=%v: blocked Recv after close = %v, want ErrClosed", local, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("local=%v: Recv did not unblock", local)
			}
			c.Close()
			peer.Close()
			l.Close()
		}
	})
}

// A stream that ends inside a frame is a truncated frame, not a clean close.
func TestTCPRecvTruncatedIsNotClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		raw.Write([]byte{0x01, 0, 0, 0, 9, byte(protocol.TAck)}) // a control frame cut short
		raw.Close()
	}()
	c, err := NewTCP().Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Recv()
	if !errors.Is(err, protocol.ErrTruncated) || errors.Is(err, ErrClosed) {
		t.Fatalf("Recv of a cut frame = %v, want ErrTruncated and not ErrClosed", err)
	}
}

func TestMemBufferedDrainAfterClose(t *testing.T) {
	tr := NewMem(nil)
	l, _ := tr.Listen("x")
	accepted := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, _ := tr.Dial("x")
	if err := c.Send(&protocol.Message{Type: protocol.TAck, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	c.Close()
	m, err := server.Recv()
	if err != nil {
		t.Fatalf("buffered message lost on close: %v", err)
	}
	if m.Seq != 9 {
		t.Fatalf("drained message = %+v", m)
	}
}

func TestLimiterRate(t *testing.T) {
	// 1 MB/s with a small burst: sending 200 KB beyond the burst must take
	// roughly 0.2 s.
	l := NewLimiter(1e6, 1e4)
	var slept time.Duration
	l.sleep = func(d time.Duration) { slept += d }
	l.Wait(10_000) // fits the initial burst
	if slept != 0 {
		t.Fatalf("burst send slept %v", slept)
	}
	l.Wait(200_000)
	got := slept.Seconds()
	if got < 0.15 || got > 0.3 {
		t.Fatalf("200 KB at 1 MB/s slept %.3f s, want ~0.2", got)
	}
}

func TestLimiterLargeRequestInstalments(t *testing.T) {
	l := NewLimiter(1e6, 1e4)
	var slept time.Duration
	l.sleep = func(d time.Duration) { slept += d }
	l.Wait(1_000_000) // 100 bursts
	got := slept.Seconds()
	if got < 0.9 || got > 1.2 {
		t.Fatalf("1 MB at 1 MB/s slept %.3f s, want ~1.0", got)
	}
}

func TestLimiterPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero rate")
		}
	}()
	NewLimiter(0, 0)
}

func TestThrottledMemTransferTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// 2 MB over a 10 MB/s limiter should take ~0.2 s of real time.
	lim := NewLimiter(10e6, 64e3)
	tr := NewMem(lim)
	l, _ := tr.Listen("m")
	go func() {
		c, _ := l.Accept()
		defer c.Close()
		chunk := make([]byte, 256<<10)
		for i := 0; i < 8; i++ {
			c.Send(&protocol.Message{Type: protocol.TFileData, Data: chunk})
		}
		c.Send(&protocol.Message{Type: protocol.TNoMoreData})
	}()
	c, _ := tr.Dial("m")
	defer c.Close()
	start := time.Now()
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == protocol.TNoMoreData {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed < 0.12 || elapsed > 1.0 {
		t.Fatalf("throttled transfer took %.3f s, want ~0.2", elapsed)
	}
}

// The in-memory transport copies the envelope — a sender may overwrite its
// message and every slice of it once Send returns — and hands Data over: the
// receiver gets the sender's bytes themselves. Slots come back at the next
// Recv, so a steady send and receive allocates nothing.
func TestMemCopiesEnvelopesAndHandsOverData(t *testing.T) {
	tr := NewMem(nil)
	l, _ := tr.Listen("x")
	accepted := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, _ := tr.Dial("x")
	defer client.Close()
	server := <-accepted
	payload := []byte("payload")
	m := &protocol.Message{
		Type: protocol.TExecuteBatch, Executes: []protocol.ExecuteSpec{{GroupIndex: 2, Files: []protocol.FileInfo{{Name: "b", Size: 2}}}},
		Results: []protocol.TaskResult{{GroupIndex: 1, OK: true}}, Data: payload,
	}
	if err := client.Send(m); err != nil {
		t.Fatal(err)
	}
	m.Executes[0].Files[0].Name, m.Executes[0].GroupIndex, m.Results[0].GroupIndex, m.Type = "X", -1, -1, protocol.TInvalid
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got == m || got.Type != protocol.TExecuteBatch || got.Executes[0].GroupIndex != 2 || got.Executes[0].Files[0].Name != "b" || got.Results[0].GroupIndex != 1 {
		t.Fatalf("received %+v after the sender overwrote its message", got)
	}
	if &got.Data[0] != &payload[0] {
		t.Fatal("Data was copied, not handed over")
	}
	if client.SendCopies() {
		t.Fatal("SendCopies on a connection that hands Data over")
	}

	status := &protocol.Message{Type: protocol.TTaskStatus, Results: []protocol.TaskResult{{GroupIndex: 1, OK: true}}}
	if n := testing.AllocsPerRun(100, func() {
		client.Send(status)
		server.Recv()
	}); n != 0 {
		t.Fatalf("%v allocations per send and receive", n)
	}
}
