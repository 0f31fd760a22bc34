// Package transport is the runtime's.
package transport

import "fixture/Layers/internal/catalog"

// N is a count.
const N = catalog.N
