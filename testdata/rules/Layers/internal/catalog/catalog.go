// Package catalog is shared.
package catalog

// N is a count.
const N = 1
