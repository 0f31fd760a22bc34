// Package fault draws exponential periods of its own.
package fault

import (
	"math"
	"math/rand"
)

func period(r *rand.Rand, mean float64) float64 {
	return -mean * math.Log(1-r.Float64()) // want
}

func global(mean float64) float64 {
	return -mean * math.Log(rand.Float64()) // want
}

func notADraw(x float64) float64 { return math.Log(x) }
