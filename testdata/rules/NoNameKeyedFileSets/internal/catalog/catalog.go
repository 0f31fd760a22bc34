// Package catalog is the fixture's replica map.
package catalog

// Replicas maps files to holders.
type Replicas struct{ n int }
