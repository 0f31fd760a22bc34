// Package used is imported by cmd/tool.
package used

// N is a count.
const N = 1
