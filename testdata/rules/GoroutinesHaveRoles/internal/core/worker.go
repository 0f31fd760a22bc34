// Package core's worker starts goroutines with and without a role.
package core

import (
	"context"
	"runtime/pprof"
	"sync"
)

var roleWriter, roleExec = role("writer"), role("exec")

func role(name string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("role", name))
}

// Worker runs goroutines.
type Worker struct {
	wg  sync.WaitGroup
	run func()
}

// Start starts each kind of goroutine once.
func (w *Worker) Start() {
	go w.writer()
	go w.loop() // want
	go func() {
		pprof.SetGoroutineLabels(roleExec)
		defer w.wg.Done()
		w.exec()
	}()
	go func() { // want
		defer w.wg.Done()
		pprof.SetGoroutineLabels(roleExec)
	}()
	go (func() { w.exec() })() // want
	go w.run()                 // want
	go w.exec()                // want
}

func (w *Worker) writer() {
	pprof.SetGoroutineLabels(roleWriter)
	w.exec()
}

func (w *Worker) loop() {
	w.exec()
	pprof.SetGoroutineLabels(roleWriter)
}

func (w *Worker) exec() {}
