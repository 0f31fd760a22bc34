package transport

import (
	"sync"
	"time"
)

// Limiter is a byte-rate limiter on wall-clock time using virtual
// scheduling: a cursor tracks when the link will next be free; each send
// advances the cursor by its serialisation time and sleeps until then. The
// in-memory transport uses it to emulate the paper's 100 Mbps provisioned
// links at integration-test scale; a limiter shared by several connections
// reproduces uplink contention because all senders advance one cursor.
type Limiter struct {
	mu     sync.Mutex
	bps    float64       // bytes per second
	burst  time.Duration // how far the cursor may lag real time (credit)
	cursor time.Time
	// sleep is a hook for tests; nil means time.Sleep.
	sleep func(time.Duration)
}

// NewLimiter returns a limiter admitting bytesPerSec sustained, with burst
// bytes of instantaneous credit. burst <= 0 defaults to one second of rate.
func NewLimiter(bytesPerSec float64, burst float64) *Limiter {
	if bytesPerSec <= 0 {
		panic("transport: non-positive limiter rate")
	}
	if burst <= 0 {
		burst = bytesPerSec
	}
	burstDur := time.Duration(burst / bytesPerSec * float64(time.Second))
	return &Limiter{bps: bytesPerSec, burst: burstDur, cursor: time.Now().Add(-burstDur)}
}

// Wait blocks until n bytes of budget are available, then consumes them.
func (l *Limiter) Wait(n int) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	// The cursor may lag real time by at most the burst window; anything
	// older is expired credit.
	if floor := now.Add(-l.burst); l.cursor.Before(floor) {
		l.cursor = floor
	}
	l.cursor = l.cursor.Add(time.Duration(float64(n) / l.bps * float64(time.Second)))
	wait := l.cursor.Sub(now)
	sleep := l.sleep
	l.mu.Unlock()
	if wait > 0 {
		if sleep != nil {
			sleep(wait)
		} else {
			time.Sleep(wait)
		}
	}
}
