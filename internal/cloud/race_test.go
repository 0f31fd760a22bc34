//go:build race

package cloud

// raceEnabled is set in -race builds, whose instrumentation allocates:
// allocation counts there say nothing about the production build.
const raceEnabled = true
