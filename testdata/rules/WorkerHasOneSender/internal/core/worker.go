// Package core's worker.go sends from functions other than its writer.
package core

import (
	"fixture/WorkerHasOneSender/internal/protocol"
	"fixture/WorkerHasOneSender/internal/transport"
)

// Worker owns one connection.
type Worker struct{ conn transport.Conn }

// Run registers, which is the handshake, then sends a status, which only
// the writer may.
func (w *Worker) Run(conn transport.Conn) error {
	if err := conn.Send(&protocol.Message{Type: protocol.TRegister}); err != nil {
		return err
	}
	w.conn = conn
	return conn.Send(&protocol.Message{Type: protocol.TStatus}) // want
}

func (w *Worker) writer() error {
	w.conn.Hold()
	if err := w.send(); err != nil {
		return err
	}
	return w.conn.Flush()
}

func (w *Worker) send() error {
	if err := sendFile(w.conn, "a"); err != nil {
		return err
	}
	return w.conn.Send(&protocol.Message{Type: protocol.TStatus})
}

func (w *Worker) other() error {
	hold := w.conn.Hold // want
	hold()
	if err := sendFile(w.conn, "b"); err != nil { // want
		return err
	}
	return w.conn.Flush() // want
}
