package core

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// slowListen binds each listener about 20 ms after it is asked to, and
// counts the dials and the failed ones.
type slowListen struct {
	transport.Transport
	dials, failed atomic.Int32
}

func (s *slowListen) Listen(addr string) (transport.Listener, error) {
	time.Sleep(20 * time.Millisecond)
	return s.Transport.Listen(addr)
}

func (s *slowListen) Dial(addr string) (transport.Conn, error) {
	s.dials.Add(1)
	c, err := s.Transport.Dial(addr)
	if err != nil {
		s.failed.Add(1)
	}
	return c, err
}

// A controller waits for its in-process master to listen before it dials:
// however long the bind takes, the start dials once and never fails a dial.
func TestInProcessStartDialsOnce(t *testing.T) {
	for name, tt := range testTransports {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			tr := &slowListen{Transport: tt.mk()}
			ctl, err := NewController(ControllerConfig{
				Strategy: strategy.RealTimeRemote, Transport: tr, MasterAddr: tt.addr, InProcessMaster: true,
				Master: MasterConfig{Source: sourceWithFiles(4, 10)}, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ctl.Start(ctx); err != nil {
				t.Fatal(err)
			}
			if d, f := tr.dials.Load(), tr.failed.Load(); d != 1 || f != 0 {
				t.Fatalf("Start dialled %d times, %d failed; want one dial that succeeds", d, f)
			}
			for _, w := range []string{"w0", "w1"} {
				if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: w, Cores: 1, Program: echoProgram()}); err != nil {
					t.Fatal(err)
				}
			}
			r, err := ctl.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ctl.Shutdown()
			if r.Succeeded != 4 || tr.failed.Load() != 0 {
				t.Fatalf("%d of 4 groups ok, %d failed dials (worker errors %v)", r.Succeeded, tr.failed.Load(), r.WorkerErrors)
			}
		})
	}
}

// A master that cannot listen fails the start with its own error at once,
// not after the controller waited on whoever holds the address, and leaves
// nothing running.
func TestStartReturnsMasterListenError(t *testing.T) {
	const timeout = 2 * time.Second
	tr := transport.NewMem(nil)
	squatter, err := tr.Listen("master")
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	goroutines := runtime.NumGoroutine()
	ctl, err := NewController(ControllerConfig{
		Strategy: strategy.RealTimeRemote, Transport: tr, MasterAddr: "master", InProcessMaster: true,
		Master: MasterConfig{Source: sourceWithFiles(4, 10)}, Workers: 1, AckTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = ctl.Start(context.Background())
	if took := time.Since(start); err == nil || !strings.Contains(err.Error(), "in use") || took > timeout/4 {
		t.Fatalf("Start = %v after %v, want the master's listen error (address in use) well within %v", err, took, timeout)
	}
	noGoroutineLeft(t, goroutines, "when Start failed")
}

// An in-process master over plain TCP on port 0 binds a free port, and the
// controller and the workers it spawns find it there.
func TestInProcessTCPOnPortZero(t *testing.T) {
	r := (&testHarness{
		tr: transport.NewTCP(), addr: "127.0.0.1:0", strategy: strategy.RealTimeRemote,
		source: sourceWithFiles(8, 100), workers: 2, cores: 1, program: echoProgram(),
	}).run(t)
	if r.Succeeded != 8 || len(r.WorkerErrors) != 0 {
		t.Fatalf("report = %+v, want all 8 groups run", r)
	}
}
