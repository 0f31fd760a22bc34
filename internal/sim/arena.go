package sim

import (
	"slices"
	"unsafe"
)

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
// A record whose use has ended goes back through Free, and the next New
// reuses the last one freed before it takes a new one from the chunk, so an
// arena whose owner frees its records holds as many as were ever in use at
// once, not as many as were ever made. The free list is a stack of pointers
// beside the records, not a link inside them: a record never grows by a
// link, and one that is never freed costs nothing more. Each record kind
// states where its use ends; a record that ends some other way is simply
// not freed. No chunk is ever given back: a record pins its chunk, which
// lives until no record of it is reachable. That suits records that live
// at most as long as the simulation that made them, and it is not safe for
// concurrent use — an arena belongs to one simulation, like its engine. The
// zero value is ready to use.
type Arena[T any] struct {
	free     []T  // the current chunk's records not yet handed out
	next     int  // the byte size of the next chunk
	recycled []*T // records given back by Free, the last one on top
	made     int  // records handed out from chunks
}

const (
	arenaFirst  = 1 << 10
	arenaMax    = 16 << 10
	arenaHeader = 8 // the type header of a pointerful object over 512 bytes
	// recycledFirst is the free stack's least capacity: 1 KiB of pointers,
	// more records of one kind than a short cell ever has in use at once,
	// so such a cell pays one allocation for its stack.
	recycledFirst = 128
)

// New returns a zeroed record: the one Free took back last, else a fresh
// one from the current chunk.
func (a *Arena[T]) New() *T {
	if n := len(a.recycled); n > 0 {
		p := a.recycled[n-1]
		a.recycled[n-1] = nil
		a.recycled = a.recycled[:n-1]
		var zero T
		*p = zero
		return p
	}
	if len(a.free) == 0 {
		var zero T
		bytes := max(a.next, arenaFirst)
		a.free = make([]T, max(1, (bytes-arenaHeader)/max(1, int(unsafe.Sizeof(zero)))))
		a.next = min(2*bytes, arenaMax)
	}
	p := &a.free[0]
	a.free = a.free[1:]
	a.made++
	return p
}

// Free gives p back for a later New to reuse. p must be a record of this
// arena whose use has ended: nothing may read or write it through any
// pointer kept from before, and nothing may Free it twice. Its contents stay
// as they were until New hands it out again, zeroed.
func (a *Arena[T]) Free(p *T) {
	if len(a.recycled) == cap(a.recycled) {
		// The stack never holds more than the records made so far, so room
		// for all of them (at least recycledFirst, at least double) lasts
		// until more are made: a storm of records freed after they were
		// all in use at once grows it once, not once per doubling.
		a.recycled = slices.Grow(a.recycled, max(a.made, 2*cap(a.recycled), recycledFirst)-len(a.recycled))
	}
	a.recycled = append(a.recycled, p)
}

// Reserve makes the next n calls to New cost at most one allocation: those
// the freed records cannot serve share one chunk. A batch known in advance
// (a cluster's workers, a run's opening stage-ins) calls it first. Whatever
// was left of the current chunk is dropped when it is too small.
func (a *Arena[T]) Reserve(n int) {
	if n -= len(a.recycled); len(a.free) < n {
		a.free = make([]T, n)
	}
}
