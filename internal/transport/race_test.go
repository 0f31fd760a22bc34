//go:build race

package transport

// raceEnabled is set in -race builds, whose shadow memory triples what a
// test holds on the heap.
const raceEnabled = true
