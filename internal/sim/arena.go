package sim

import "unsafe"

// Arena hands out zeroed records of one type from chunks it allocates, so a
// simulation that builds thousands of records of a kind pays one allocation
// per chunk rather than one per record, and each record costs its exact size
// rather than its size class. Chunks start at arenaFirst bytes and double up
// to arenaMax: a short cell wastes at most a small chunk's tail, a long one
// at most arenaMax bytes per arena. Every chunk size is a power of two that
// is also a size class of the Go allocator, and a chunk leaves room for the
// allocator's type header, so it rounds up by less than one record.
// Reserve sizes the next chunk for a known batch.
//
// An arena never frees or reuses a record: a record pins its chunk, which
// lives until no record of it is reachable. It suits records that live as
// long as the simulation that made them, and it is not safe for concurrent
// use — an arena belongs to one simulation, like its engine. The zero value
// is ready to use.
type Arena[T any] struct {
	free []T // the current chunk's records not yet handed out
	next int // the byte size of the next chunk
}

const (
	arenaFirst  = 1 << 10
	arenaMax    = 16 << 10
	arenaHeader = 8 // the type header of a pointerful object over 512 bytes
)

// New returns a zeroed record.
func (a *Arena[T]) New() *T {
	if len(a.free) == 0 {
		var zero T
		bytes := max(a.next, arenaFirst)
		a.free = make([]T, max(1, (bytes-arenaHeader)/max(1, int(unsafe.Sizeof(zero)))))
		a.next = min(2*bytes, arenaMax)
	}
	p := &a.free[0]
	a.free = a.free[1:]
	return p
}

// Reserve makes the next n calls to New share one chunk: a batch known in
// advance (a cluster's workers, a run's opening stage-ins) costs one
// allocation. Whatever was left of the current chunk is dropped when it is
// too small.
func (a *Arena[T]) Reserve(n int) {
	if len(a.free) < n {
		a.free = make([]T, n)
	}
}
