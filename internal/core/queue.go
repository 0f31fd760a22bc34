package core

import "sync"

// queue is the master's one handoff between goroutines: an unbounded FIFO
// that any goroutine puts to and one takes from — the loop its inbox, each
// writer its outbox. It has no bound on purpose: a put never blocks, so the
// loop can fill an outbox whose writer is posting its own death to the
// loop. A take hands out the queue's array and puts in its place the one it
// handed out before, which the taker is done with, so the two arrays trade
// places and the steady state allocates nothing. Its mutex is the only lock
// on the master's side.
type queue[T any] struct {
	mu     sync.Mutex
	items  []T
	spare  []T // the batch in the taker's hands: the next take's array
	closed bool
	wake   chan struct{} // a token once the queue went non-empty or closed
}

// init readies a zero queue.
func (q *queue[T]) init() { q.wake = make(chan struct{}, 1) }

// reserve gives both arrays room for n items, so that batches of up to n
// never grow them: one allocation, split in two. The batch in the taker's
// hands keeps its array; the next take hands out the new one.
func (q *queue[T]) reserve(n int) {
	q.mu.Lock()
	if cap(q.items) < n || cap(q.spare) < n {
		n = max(n, len(q.items))
		both := make([]T, 2*n)
		q.items = both[:copy(both, q.items):n]
		q.spare = both[n : n : 2*n]
	}
	q.mu.Unlock()
}

// put appends vs, unless the queue is closed, and reports whether it did.
// They are taken together: no take sees some of them without the rest.
func (q *queue[T]) put(vs ...T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, vs...)
	first := len(q.items) == len(vs)
	q.mu.Unlock()
	if first {
		q.signal() // the taker may be waiting for an empty queue to fill
	}
	return true
}

// close refuses later puts; what was put before is still taken.
func (q *queue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

func (q *queue[T]) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take hands over everything put so far; the caller must be done with the
// batch it took before, and should clear it of references first. With wait
// it blocks while the queue is empty and open. open is false once the queue
// is closed.
func (q *queue[T]) take(wait bool) (items []T, open bool) {
	for {
		q.mu.Lock()
		items, open = q.items, !q.closed
		if len(items) > 0 || !open || !wait {
			q.items, q.spare = q.spare[:0], items
			q.mu.Unlock()
			return items, open
		}
		q.mu.Unlock()
		<-q.wake
	}
}
