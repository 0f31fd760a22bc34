package core

import "sync"

// queue is the master's one handoff between goroutines: an unbounded FIFO
// that any goroutine puts to and one takes from — the loop its inbox, each
// writer its outbox. It has no bound on purpose: a put never blocks, so the
// loop can fill an outbox whose writer is posting its own death to the
// loop. The taker swaps the queue out against its finished batch, so the two
// arrays trade places and the steady state allocates nothing. Its mutex is
// the only lock on the master's side.
type queue[T any] struct {
	mu     sync.Mutex
	items  []T
	closed bool
	wake   chan struct{} // a token once the queue went non-empty or closed
}

// init readies a zero queue.
func (q *queue[T]) init() { q.wake = make(chan struct{}, 1) }

// put appends v, unless the queue is closed, and reports whether it did.
func (q *queue[T]) put(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, v)
	first := len(q.items) == 1
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

// take hands over everything put so far in exchange for buf, a batch the
// caller is done with. With wait it blocks while the queue is empty and
// open. open is false once the queue is closed.
func (q *queue[T]) take(buf []T, wait bool) (items []T, open bool) {
	for {
		q.mu.Lock()
		items, open = q.items, !q.closed
		if len(items) > 0 || !open || !wait {
			q.items = buf[:0]
			q.mu.Unlock()
			return items, open
		}
		q.mu.Unlock()
		<-q.wake
	}
}
