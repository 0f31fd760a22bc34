package core

import (
	"slices"
	"testing"
)

// reserve keeps what is queued, and its two arrays — halves of one — never
// overlap: puts after a take do not touch the batch in the taker's hands.
func TestQueueReserve(t *testing.T) {
	var q queue[int]
	q.init()
	q.put(1, 2)
	q.reserve(4)
	q.put(3)
	held, open := q.take(false)
	if !open || !slices.Equal(held, []int{1, 2, 3}) {
		t.Fatalf("took %v (open %v), want [1 2 3]", held, open)
	}
	q.put(4, 5, 6, 7)
	if !slices.Equal(held, []int{1, 2, 3}) {
		t.Fatalf("the batch in hand became %v", held)
	}
	if next, _ := q.take(false); !slices.Equal(next, []int{4, 5, 6, 7}) || cap(next) != 4 {
		t.Fatalf("took %v of capacity %d, want [4 5 6 7] in the reserved 4", next, cap(next))
	}
	q.close()
	if q.put(8) {
		t.Fatal("a put after close")
	}
	if rest, open := q.take(true); open || len(rest) != 0 {
		t.Fatalf("after close: %v, open %v", rest, open)
	}
}
