package core

// Worker's other functions do not call conn.Send(msg), conn.Hold(),
// conn.Flush() or sendFile(conn, f).
type Worker struct{ n int }

// Run does not call w.conn.Send(&protocol.Message{Type: protocol.TStatus}),
// nor start go w.writer() without pprof.SetGoroutineLabels.
func (w *Worker) Run() int { return w.n }
