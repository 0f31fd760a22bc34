// Package sim keeps no sync.Pool; outside it no -mean * math.Log(1 -
// r.Float64()) or expDraw is written.
package sim

// N is a count.
const N = 1
