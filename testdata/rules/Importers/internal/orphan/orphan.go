// Package orphan has no importer.
package orphan // want

// N is a count.
const N = 1
