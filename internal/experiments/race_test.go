//go:build race

package experiments

// raceEnabled is set in -race builds, whose instrumentation allocates and
// whose sync.Pool drops a share of its Puts by design: allocation counts
// there say nothing about the production build.
const raceEnabled = true
