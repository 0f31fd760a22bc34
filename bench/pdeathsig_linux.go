//go:build linux

package main

import "syscall"

// setParentDeathSignal asks the kernel to SIGKILL this process when its
// parent dies, so that killing a `go run` wrapper cannot orphan the compiled
// benchmark binary.
func setParentDeathSignal() {
	// The result is ignored: without the prctl the benchmark still runs, it
	// only loses the orphan guard.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_PDEATHSIG, uintptr(syscall.SIGKILL), 0)
}
