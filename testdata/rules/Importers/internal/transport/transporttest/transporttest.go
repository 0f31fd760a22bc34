// Package transporttest is a test helper: tests import it.
package transporttest

// N is a count.
const N = 1
