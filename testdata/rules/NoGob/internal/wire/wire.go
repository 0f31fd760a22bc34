// Package wire imports gob, which the NoGob rule forbids.
package wire

import "encoding/gob" // want

// Encoder is gob's.
type Encoder = gob.Encoder
