// Package core's master keys workers by name and names the replica map.
package core

import "fixture/NoNameKeyedFileSets/internal/catalog"

// Master keys by name.
type Master struct {
	workers map[string]int // want
	ids     map[int]string
}

var replicas catalog.Replicas // want
