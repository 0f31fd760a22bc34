// Package transport is the fixture's connection.
package transport

import "fixture/WorkerHasOneSender/internal/protocol"

// Conn sends frames.
type Conn interface {
	Send(*protocol.Message) error
	Hold()
	Flush() error
}
