// Package lib is the fixture of TestUncalledFuncIsReported: one function
// per kind of caller, and three with none.
package lib

// Thing carries the fixture's methods.
type Thing struct{}

// Called is called from cmd/.
func Called() int { return 1 }

// Benched is called only from bench/.
func (Thing) Benched() {}

// Uncalled is called only from its own body and from a test: the checker
// must report it.
func (t Thing) Uncalled(n int) int {
	if n > 0 {
		return t.Uncalled(n - 1)
	}
	return 0
}

// String is called by fmt.
func (Thing) String() string { return "thing" }

// Release is called from cmd/.
func (Thing) Release() {}

// Other declares a Release of its own, which nothing calls: the checker
// must report it, though Thing's Release spells the same name.
type Other struct{}

// Release is not called.
func (Other) Release() {}

// helper is unexported and called only from a test: the checker must
// report it.
func helper() int { return 2 }
