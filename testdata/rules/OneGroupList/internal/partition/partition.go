// Package partition is the fixture's generators.
package partition

// Generator groups files.
type Generator interface {
	Generate(files []string) [][]string
}

// Single puts each file in a group of its own.
type Single struct{}

// Generate implements Generator.
func (Single) Generate(files []string) [][]string {
	groups := make([][]string, len(files))
	for i, f := range files {
		groups[i] = []string{f}
	}
	return groups
}

// ByName resolves a grouping, and may run one.
func ByName(string) Generator {
	var g Generator = Single{}
	g.Generate(nil)
	return g
}
