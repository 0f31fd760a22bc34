// Package protocol is the fixture's message.
package protocol

// The message types.
const (
	TRegister = iota
	TStatus
)

// Message is one frame.
type Message struct{ Type int }
