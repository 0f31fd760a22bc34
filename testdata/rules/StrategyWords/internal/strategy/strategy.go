// Package strategy may parse its words.
package strategy

// Parse returns a kind.
func Parse(s string) int {
	switch s {
	case "no-partition":
		return 0
	case "real-time":
		return 2
	}
	return -1
}
