package core

// A store may key files by name: it is not master.go.
type store struct{ files map[string][]byte }
