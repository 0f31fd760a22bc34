package core

import "fixture/WorkerHasOneSender/internal/transport"

func sendFile(conn transport.Conn, name string) error { return conn.Flush() }
