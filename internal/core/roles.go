package core

import (
	"context"
	"runtime/pprof"
)

// Every goroutine core starts names its role in a pprof label, "role", as
// its first call, and Worker.Run and Master.serve name theirs on entry, so a
// daemon's main goroutine is labelled too. A CPU profile of a run then splits
// by role (`go tool pprof -tags`); a program's own goroutines inherit
// worker.exec. Each role's context is built once per process, and setting it
// allocates nothing.
var (
	roleControllerRecv = role("controller.recv")
	roleMasterAccept   = role("master.accept")
	roleMasterLoop     = role("master.loop")
	roleMasterReader   = role("master.reader")
	roleMasterWriter   = role("master.writer")
	roleWorkerReader   = role("worker.reader")
	roleWorkerWriter   = role("worker.writer")
	roleWorkerExec     = role("worker.exec")
)

func role(name string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("role", name))
}
