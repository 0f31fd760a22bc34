package transport

import (
	"errors"
	"fmt"
	"io"
	"net"

	"frieda/internal/protocol"
)

// TCP is the production transport: protocol.Codec frames over net.Conn.
// Addresses are standard "host:port" strings; Listen(":0") picks a free
// port, readable from Listener.Addr.
type TCP struct{}

// NewTCP returns a TCP transport.
func NewTCP() *TCP { return &TCP{} }

// Listen implements Transport.
func (t *TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l, addr: l.Addr().String()}, nil
}

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewStreamConn(c), nil
}

type tcpListener struct {
	l    net.Listener
	addr string // the bound address, formatted once
}

// Accept implements Listener. Once the listener is closed it returns
// ErrClosed, as the in-memory listener does.
func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if errors.Is(err, net.ErrClosed) {
		return nil, ErrClosed
	}
	if err != nil {
		return nil, err
	}
	return NewStreamConn(c), nil
}

// Close implements Listener.
func (l *tcpListener) Close() error { return l.l.Close() }

// Addr implements Listener.
func (l *tcpListener) Addr() string { return l.addr }

type tcpConn struct {
	c     net.Conn
	codec *protocol.Codec
}

// NewStreamConn frames messages over c with a protocol.Codec: what the TCP
// transport makes of every connection it dials or accepts. A test hands it a
// net.Conn of its own to watch the bytes and the writes.
func NewStreamConn(c net.Conn) Conn {
	return &tcpConn{c: c, codec: protocol.NewCodec(c)}
}

// Send implements Conn.
func (c *tcpConn) Send(m *protocol.Message) error { return c.codec.Send(m) }

// SendCopies implements Conn: the codec has copied the frame or written it.
func (c *tcpConn) SendCopies() bool { return true }

// Hold implements Conn.
func (c *tcpConn) Hold() { c.codec.Hold() }

// Flush implements Conn.
func (c *tcpConn) Flush() error { return c.codec.Flush() }

// Recv implements Conn. The message is the codec's own, reused by the next
// Recv. The end of the stream between frames (the peer closed) and a
// connection closed under a blocked Recv are ErrClosed, wrapping the cause; a
// stream that ends inside a frame is protocol.ErrTruncated.
func (c *tcpConn) Recv() (*protocol.Message, error) {
	m, err := c.codec.Recv()
	if err == io.EOF || errors.Is(err, net.ErrClosed) {
		return nil, fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return m, err
}

// Buffered implements Conn: the codec's read-ahead holds a whole frame.
func (c *tcpConn) Buffered() bool { return c.codec.Buffered() }

// Close implements Conn.
func (c *tcpConn) Close() error { return c.c.Close() }

// RemoteAddr implements Conn.
func (c *tcpConn) RemoteAddr() string { return c.c.RemoteAddr().String() }
