package core

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"frieda/internal/strategy"
)

// Mid-job, every goroutine running core's code names its role: the
// controller's, a master served on a goroutine of the caller's as a daemon
// serves it, and workers both spawned and run by the caller. The profile is
// taken while every executor holds a task.
func TestEveryGoroutineHasARole(t *testing.T) {
	for name, tt := range testTransports {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			tr := tt.mk()
			m, err := NewMaster(MasterConfig{Source: sourceWithFiles(8, 100), Transport: tr, Addr: tt.addr})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.listen(); err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- m.serve(ctx) }()
			ctl, err := NewController(ControllerConfig{
				Strategy: strategy.RealTimeRemote, Transport: tr, MasterAddr: m.Addr(), Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ctl.Start(ctx); err != nil {
				t.Fatal(err)
			}
			// Each one-slot worker holds its first task until the profile is
			// taken: the first two tasks held are one on each.
			held, release := make(chan struct{}, 8), make(chan struct{})
			prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
				held <- struct{}{}
				<-release
				return "", nil
			})
			if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "w0", Cores: 1, Program: prog}); err != nil {
				t.Fatal(err)
			}
			w, err := NewWorker(WorkerConfig{Name: "w1", Cores: 1, Transport: tr, MasterAddr: m.Addr(), Store: NewMemStore(), Program: prog})
			if err != nil {
				t.Fatal(err)
			}
			ran := make(chan error, 1)
			go func() { ran <- w.Run(ctx) }()
			for range 2 {
				select {
				case <-held:
				case <-ctx.Done():
					t.Fatal("the workers never held a task each")
				}
			}
			var profile bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&profile, 1)
			close(release)
			if r, err := ctl.Wait(ctx); err != nil || r.Succeeded != 8 {
				t.Fatalf("report = %+v, %v", r, err)
			}
			ctl.Shutdown()
			cancel()
			<-served
			<-ran
			roles := make(map[string]bool)
			for _, rec := range strings.Split(profile.String(), "\n\n") {
				// The test's own goroutines are not core's.
				if !strings.Contains(rec, "frieda/internal/core.") || strings.Contains(rec, "testing.tRunner") {
					continue
				}
				_, labels, ok := strings.Cut(rec, `# labels: {"role":"`)
				if !ok {
					t.Errorf("a goroutine with no role:\n%s", rec)
					continue
				}
				roles[labels[:strings.IndexByte(labels, '"')]] = true
			}
			for _, role := range []string{"controller.recv", "master.accept", "master.loop", "master.reader", "master.writer", "worker.reader", "worker.writer", "worker.exec"} {
				if !roles[role] {
					t.Errorf("no goroutine of role %s mid-job; roles %v", role, roles)
				}
			}
			if t.Failed() {
				t.Log(profile.String())
			}
		})
	}
}
