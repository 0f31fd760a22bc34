//go:build !linux

package main

// setParentDeathSignal is a no-op where prctl(PR_SET_PDEATHSIG) does not exist.
func setParentDeathSignal() {}
