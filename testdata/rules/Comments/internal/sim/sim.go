// Package sim keeps no sync.Pool, sync.Mutex or atomic.Int32; outside it
// no -mean * math.Log(1 - r.Float64()) or expDraw is written.
package sim

// N is a count.
const N = 1
