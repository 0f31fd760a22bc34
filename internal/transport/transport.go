// Package transport abstracts how FRIEDA components exchange protocol
// messages. Two implementations ship: an in-memory transport (goroutine
// channels, optionally token-bucket throttled to emulate provisioned cloud
// bandwidth at test scale) and a TCP transport on the standard net package
// for running the controller, master and workers as separate processes.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"frieda/internal/protocol"
)

// ErrClosed is returned from operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// Conn is a bidirectional, ordered, reliable message stream.
//
// Who owns a message: a received message and everything it references,
// except its strings, is valid until the next Recv on that connection, and is
// read-only — a stream transport decodes every frame into one message it
// reuses, so a receiver copies what it keeps. A sender whose connection
// reports SendCopies may reuse the whole message — its slices and Data
// included — once Send has returned: held or not, the connection has by then
// encoded the message, and copied the payload or written it. On any other
// connection Send copies the envelope — the message and its slices — and
// hands Data over: the sender may reuse the envelope once Send has returned,
// but modifies the bytes of Data never again, and the receiver may keep them,
// read-only, past the next Recv.
type Conn interface {
	// Send enqueues one message. It may block under throttling or
	// backpressure. Outside a hold the message is on its way when Send
	// returns.
	Send(m *protocol.Message) error
	// Hold lets a stream transport collect the Sends that follow and write
	// them together at the Flush that releases the hold. Holds nest by
	// count, so concurrent senders may each bracket their own messages; a
	// bounded amount is held, more is written early. While held, a Send
	// whose write is put off returns nil and the write's error comes back
	// from Flush or a later Send.
	Hold()
	// Flush releases one Hold; the last release writes what was held.
	Flush() error
	// SendCopies reports whether Send has copied or written Data by the
	// time it returns (a stream transport). Otherwise Data travels on to
	// the receiver, which may keep it.
	SendCopies() bool
	// Recv blocks for the next message, valid until the next Recv. It
	// returns ErrClosed (possibly wrapped) once either side has closed the
	// connection.
	Recv() (*protocol.Message, error)
	// Buffered reports whether a whole message has arrived and waits to be
	// received: the next Recv returns it without reading the stream or
	// waiting on the sender. Only the receiving goroutine may call it.
	Buffered() bool
	// Close tears the connection down; pending Recvs unblock with error.
	Close() error
	// RemoteAddr names the peer for logs.
	RemoteAddr() string
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next connection.
	Accept() (Conn, error)
	// Close stops accepting; blocked Accepts unblock with error.
	Close() error
	// Addr returns the bound address (useful when listening on ":0").
	Addr() string
}

// Transport creates listeners and outbound connections.
type Transport interface {
	// Listen binds addr.
	Listen(addr string) (Listener, error)
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
}

// --- In-memory transport ---

// Mem is an in-process transport. Addresses are arbitrary strings in a
// private namespace per Mem instance. Connections deliver messages through
// buffered channels; an optional Limiter emulates link bandwidth.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	limiter   *Limiter
	buffer    int
}

// NewMem returns an in-memory transport. limiter may be nil for unthrottled
// delivery.
func NewMem(limiter *Limiter) *Mem {
	return &Mem{listeners: make(map[string]*memListener), limiter: limiter, buffer: 64}
}

// Listen implements Transport.
func (t *Mem) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.listeners[addr]; dup {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := &memListener{addr: addr, backlog: make(chan Conn, 16), tr: t}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *Mem) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	client, server := t.pair(addr)
	select {
	case l.backlog <- server:
		select {
		case <-l.done():
			l.dropBacklog() // the listener closed meanwhile: nobody will accept it
		default:
		}
		return client, nil
	case <-l.done():
		return nil, fmt.Errorf("transport: listener %q closed", addr)
	}
}

// pair builds the two connected endpoints.
func (t *Mem) pair(addr string) (client, server *memConn) {
	ab, ba := t.pipe(), t.pipe()
	closed := make(chan struct{})
	var once sync.Once
	closeBoth := func() { once.Do(func() { close(closed) }) }
	client = &memConn{out: ab, in: ba, closed: closed, closeFn: closeBoth, peer: addr, limiter: t.limiter}
	server = &memConn{out: ba, in: ab, closed: closed, closeFn: closeBoth, peer: "dialer->" + addr, limiter: t.limiter}
	return client, server
}

// memPipe is one direction of a connection: the slots in flight, and the
// slots its receiver is done with, for its senders to fill again. free holds
// as many as a sender and a receiver keep busy between them — the buffer,
// the one being received and the one being filled — and drops any more.
type memPipe struct {
	ch, free chan *memSlot
}

func (t *Mem) pipe() memPipe {
	return memPipe{ch: make(chan *memSlot, t.buffer), free: make(chan *memSlot, t.buffer+2)}
}

// memSlot is one sent message: the sender's envelope copied into msg, whose
// slices are windows of the slot's own backing arrays, and the sender's Data.
type memSlot struct {
	msg              protocol.Message
	template, common []string
	files            []protocol.FileInfo
	groups           []int
	results          []protocol.TaskResult
}

// fill copies m into the slot, reusing its backing arrays. Empty slices
// arrive nil, as they do over TCP.
func (s *memSlot) fill(m *protocol.Message) {
	s.msg = *m
	s.template = append(s.template[:0], m.Template...)
	s.msg.Template = nonEmpty(s.template)
	s.common = append(s.common[:0], m.Strategy.CommonFiles...)
	s.msg.Strategy.CommonFiles = nonEmpty(s.common)
	s.files = append(s.files[:0], m.Files...)
	s.msg.Files = nonEmpty(s.files)
	s.groups = append(s.groups[:0], m.Groups...)
	s.msg.Groups = nonEmpty(s.groups)
	s.results = append(s.results[:0], m.Results...)
	s.msg.Results = nonEmpty(s.results)
}

// nonEmpty is s, or nil when s is empty.
func nonEmpty[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

type memListener struct {
	addr    string
	backlog chan Conn
	tr      *Mem

	mu       sync.Mutex
	closedCh chan struct{}
}

func (l *memListener) done() chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closedCh == nil {
		l.closedCh = make(chan struct{})
	}
	return l.closedCh
}

// Accept implements Listener.
func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done():
		return nil, ErrClosed
	}
}

// Close implements Listener.
func (l *memListener) Close() error {
	l.tr.mu.Lock()
	delete(l.tr.listeners, l.addr)
	l.tr.mu.Unlock()
	ch := l.done()
	select {
	case <-ch:
	default:
		close(ch)
	}
	l.dropBacklog()
	return nil
}

// dropBacklog closes the connections dialled and never accepted, so that
// their dialers see a closed connection instead of waiting on it for ever.
// Close and a Dial that raced it both call it; whichever comes second finds
// what the other left.
func (l *memListener) dropBacklog() {
	for {
		select {
		case c := <-l.backlog:
			c.Close()
		default:
			return
		}
	}
}

// Addr implements Listener.
func (l *memListener) Addr() string { return l.addr }

type memConn struct {
	out, in memPipe
	// prev is the slot the last Recv returned; only the connection's single
	// receiver touches it.
	prev    *memSlot
	closed  chan struct{}
	closeFn func()
	peer    string
	limiter *Limiter
}

// Send implements Conn. The message is charged against the shared limiter
// (emulating the provisioned link) before delivery. The envelope is copied
// into a slot; Data travels as it is.
func (c *memConn) Send(m *protocol.Message) error {
	if c.limiter != nil {
		c.limiter.Wait(m.WireSize())
	}
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	var s *memSlot
	select {
	case s = <-c.out.free:
	default:
		s = new(memSlot)
	}
	s.fill(m)
	select {
	case c.out.ch <- s:
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

// SendCopies implements Conn: Data travels to the receiver.
func (c *memConn) SendCopies() bool { return false }

// Hold implements Conn. A message is delivered by Send itself: there is no
// write to save.
func (c *memConn) Hold() {}

// Flush implements Conn.
func (c *memConn) Flush() error { return nil }

// Recv implements Conn. Buffered messages drain even after close, matching
// TCP semantics where in-flight data is still readable. The previous
// message's slot goes back to the senders.
func (c *memConn) Recv() (*protocol.Message, error) {
	if s := c.prev; s != nil {
		c.prev = nil
		s.msg = protocol.Message{} // keep no payload alive in the free list
		select {
		case c.in.free <- s:
		default:
		}
	}
	s, err := c.next()
	if err != nil {
		return nil, err
	}
	c.prev = s
	return &s.msg, nil
}

// Buffered implements Conn: a sent message waits in the pipe.
func (c *memConn) Buffered() bool { return len(c.in.ch) > 0 }

// next takes the next slot off the connection.
func (c *memConn) next() (*memSlot, error) {
	select {
	case s := <-c.in.ch:
		return s, nil
	default:
	}
	select {
	case s := <-c.in.ch:
		return s, nil
	case <-c.closed:
		// Final drain: close raced with a buffered send.
		select {
		case s := <-c.in.ch:
			return s, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close implements Conn.
func (c *memConn) Close() error {
	c.closeFn()
	return nil
}

// RemoteAddr implements Conn.
func (c *memConn) RemoteAddr() string { return c.peer }
