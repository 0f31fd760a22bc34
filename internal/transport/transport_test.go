package transport

import (
	"errors"
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
