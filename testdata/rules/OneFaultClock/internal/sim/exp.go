// Package sim owns the fault clock's draw.
package sim

import (
	"math"
	"math/rand"
)

// Exp draws an exponential period.
func Exp(r *rand.Rand, mean float64) float64 { return -mean * math.Log(1-r.Float64()) }
