// Package lib is the fixture of TestUncalledExportIsReported: one export
// per kind of caller, and one with none.
package lib

// Thing carries the fixture's methods.
type Thing struct{}

// Called is called from cmd/.
func Called() int { return 1 }

// Benched is called only from bench/.
func (Thing) Benched() {}

// Uncalled is called only from its own body and from a test: the one the
// checker must report.
func (t Thing) Uncalled(n int) int {
	if n > 0 {
		return t.Uncalled(n - 1)
	}
	return 0
}

// String is called by fmt.
func (Thing) String() string { return "thing" }
