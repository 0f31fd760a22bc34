package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// fakeMaster accepts one worker connection and hands control to fn.
func fakeMaster(t *testing.T, fn func(conn transport.Conn)) (tr *transport.Mem, addr string) {
	t.Helper()
	tr = transport.NewMem(nil)
	l, err := tr.Listen("fake-master")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Consume the registration first.
		if m, err := conn.Recv(); err != nil || m.Type != protocol.TRegister {
			t.Errorf("first message = %v, %v", m, err)
			conn.Close()
			return
		}
		fn(conn)
	}()
	return tr, "fake-master"
}

func newTestWorker(t *testing.T, tr *transport.Mem, addr string, prog Program) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Name: "w0", Cores: 2, Store: NewMemStore(), Program: prog,
		Transport: tr, MasterAddr: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkerRejectsNonAckHandshake(t *testing.T) {
	tr, addr := fakeMaster(t, func(conn transport.Conn) {
		conn.Send(&protocol.Message{Type: protocol.TExecute})
	})
	w := newTestWorker(t, tr, addr, FuncProgram(func(context.Context, Task) (string, error) { return "", nil }))
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "expected ACK") {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkerUnexpectedMessageFailsLoop(t *testing.T) {
	tr, addr := fakeMaster(t, func(conn transport.Conn) {
		conn.Send(&protocol.Message{Type: protocol.TAck, Cores: 1})
		conn.Send(&protocol.Message{Type: protocol.TForkWorkers})
	})
	w := newTestWorker(t, tr, addr, FuncProgram(func(context.Context, Task) (string, error) { return "", nil }))
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkerOutOfOrderChunkReportsError(t *testing.T) {
	got := make(chan *protocol.Message, 8)
	tr, addr := fakeMaster(t, func(conn transport.Conn) {
		conn.Send(&protocol.Message{Type: protocol.TAck, Cores: 1})
		// A chunk with a gap: offset 100 with nothing stored.
		conn.Send(&protocol.Message{Type: protocol.TFileData, FileName: "f", Offset: 100, Data: []byte("x")})
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			kept := *m // a received message is valid until the next Recv
			got <- &kept
			if m.Type == protocol.TTaskStatus {
				conn.Send(&protocol.Message{Type: protocol.TNoMoreData})
				return
			}
		}
	})
	w := newTestWorker(t, tr, addr, FuncProgram(func(context.Context, Task) (string, error) { return "", nil }))
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-got:
			if m.Type == protocol.TTaskStatus {
				if m.Result.GroupIndex != -1 || m.Result.OK {
					t.Fatalf("status = %+v", m.Result)
				}
				if !strings.Contains(m.Result.Error, "out-of-order") {
					t.Fatalf("error = %q", m.Result.Error)
				}
				return
			}
		case <-deadline:
			t.Fatal("no error status arrived")
		}
	}
}

func TestWorkerContextCancelUnblocks(t *testing.T) {
	tr, addr := fakeMaster(t, func(conn transport.Conn) {
		conn.Send(&protocol.Message{Type: protocol.TAck, Cores: 1})
		// Then silence: the worker blocks in Recv until cancelled.
	})
	w := newTestWorker(t, tr, addr, FuncProgram(func(context.Context, Task) (string, error) { return "", nil }))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the worker")
	}
}

func TestWorkerDialRetrySucceedsAfterDelay(t *testing.T) {
	tr := transport.NewMem(nil)
	w, err := NewWorker(WorkerConfig{
		Name: "w0", Cores: 1, Store: NewMemStore(),
		Program:   FuncProgram(func(context.Context, Task) (string, error) { return "", nil }),
		Transport: tr, MasterAddr: "late-master",
		DialRetry: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	// Bring the master up ~300ms after the worker started dialing.
	time.Sleep(300 * time.Millisecond)
	l, err := tr.Listen("late-master")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Recv() // registration
		conn.Send(&protocol.Message{Type: protocol.TAck, Cores: 1})
		conn.Send(&protocol.Message{Type: protocol.TNoMoreData})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker failed despite retry: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never connected")
	}
}

func TestWorkerNoProgramNoTemplate(t *testing.T) {
	tr, addr := fakeMaster(t, func(conn transport.Conn) {
		conn.Send(&protocol.Message{Type: protocol.TAck, Cores: 1}) // no template
	})
	w, err := NewWorker(WorkerConfig{
		Name: "w0", Cores: 1, Store: NewMemStore(),
		Transport: tr, MasterAddr: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "neither Program nor template") {
		t.Fatalf("err = %v", err)
	}
}

// A task runs only on inputs that are whole: a chunk that failed to store, or
// a file whose last chunk has not landed, fails the task at once, naming the
// input, instead of letting it run on a short file. A file the store holds,
// placed beforehand or re-sent whole after a failure, runs.
func TestWorkerFailsTaskOnPartialInput(t *testing.T) {
	chunk := func(offset, size int64, data string, last bool) *protocol.Message {
		return &protocol.Message{Type: protocol.TFileData, FileName: "f", Offset: offset, FileSize: size, Data: []byte(data), Last: last}
	}
	for name, tc := range map[string]struct {
		placed string // what the store holds of f before the worker starts
		chunks []*protocol.Message
		runs   bool
	}{
		"failed chunk": {placed: "hello", chunks: []*protocol.Message{
			chunk(100, 0, "x", true), // a gap: the store refuses it
		}},
		"first chunk only": {chunks: []*protocol.Message{
			chunk(0, 10, "hello", false),
		}},
		"failed then re-sent whole": {runs: true, chunks: []*protocol.Message{
			chunk(0, 10, "hello", false),
			chunk(100, 10, "x", true),
			chunk(0, 5, "hello", true),
		}},
		"placed beforehand": {placed: "hello", runs: true},
		"never sent":        {},
	} {
		t.Run(name, func(t *testing.T) {
			status := make(chan protocol.TaskResult, 1)
			tr, addr := fakeMaster(t, func(conn transport.Conn) {
				conn.Send(&protocol.Message{Type: protocol.TAck, Cores: 1})
				for _, m := range tc.chunks {
					conn.Send(m)
				}
				conn.Send(&protocol.Message{Type: protocol.TExecute, GroupIndex: 0, Files: []protocol.FileInfo{{Name: "f", Size: 5}}})
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					if m.Type == protocol.TTaskStatus && m.Result.GroupIndex == 0 {
						status <- m.Result
						conn.Send(&protocol.Message{Type: protocol.TNoMoreData})
						return
					}
				}
			})
			store := NewMemStore()
			if tc.placed != "" {
				store.Put("f", strings.NewReader(tc.placed))
			}
			var ran atomic.Bool
			w, err := NewWorker(WorkerConfig{
				Name: "w0", Cores: 1, Store: store, Transport: tr, MasterAddr: addr,
				Program: FuncProgram(func(_ context.Context, task Task) (string, error) {
					ran.Store(true)
					return readAll(task.Store, "f"), nil
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			var res protocol.TaskResult
			select {
			case res = <-status:
			case <-time.After(5 * time.Second):
				t.Fatal("no task status arrived")
			}
			switch {
			case tc.runs && (!res.OK || res.Output != "hello"):
				t.Fatalf("status = %+v, want a run on the whole file", res)
			case !tc.runs && (res.OK || !strings.Contains(res.Error, `"f"`)):
				t.Fatalf("status = %+v, want a failure naming f", res)
			case !tc.runs && ran.Load():
				t.Fatal("the program ran on a partial input")
			}
		})
	}
}
