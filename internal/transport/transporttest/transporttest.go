// Package transporttest holds transport wrappers for tests of the code that
// sits on top of transport.Conn.
package transporttest

import (
	"fmt"
	"hash/crc32"
	"sync"

	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// Ownership wraps a transport so that every connection enforces the payload
// ownership rule of transport.Conn as harshly as a conforming transport may,
// and catches the code that breaks it:
//
//   - A received TFileData's Data is a private copy that is overwritten with
//     0xA5 as soon as the next Recv on the connection starts — a receiver that
//     still reads it then sees garbage (and the race detector sees a race).
//   - Every sent TFileData travels with the CRC of its Data (in Seq, which the
//     runtime leaves unused on data messages) and is checked on delivery — a
//     sender that reuses a buffer the connection has not copied is reported.
type Ownership struct {
	transport.Transport

	mu         sync.Mutex
	violations []string
	checked    int
}

// NewOwnership wraps inner.
func NewOwnership(inner transport.Transport) *Ownership {
	return &Ownership{Transport: inner}
}

// Violations lists the payloads that changed between Send and delivery.
func (o *Ownership) Violations() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.violations...)
}

// Checked reports how many data messages were verified on delivery.
func (o *Ownership) Checked() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.checked
}

// Listen implements transport.Transport.
func (o *Ownership) Listen(addr string) (transport.Listener, error) {
	l, err := o.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &ownershipListener{Listener: l, o: o}, nil
}

// Dial implements transport.Transport.
func (o *Ownership) Dial(addr string) (transport.Conn, error) {
	c, err := o.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &ownershipConn{Conn: c, o: o}, nil
}

type ownershipListener struct {
	transport.Listener
	o *Ownership
}

func (l *ownershipListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ownershipConn{Conn: c, o: l.o}, nil
}

// crcMark flags a Seq that carries a payload CRC in its low 32 bits.
const crcMark = 1 << 40

type ownershipConn struct {
	transport.Conn
	o *Ownership
	// prev is the copy the previous Recv handed out; only the connection's
	// single receiver touches it.
	prev []byte
}

func (c *ownershipConn) Send(m *protocol.Message) error {
	if m.Type != protocol.TFileData {
		return c.Conn.Send(m)
	}
	stamped := *m
	stamped.Seq = crcMark | uint64(crc32.ChecksumIEEE(m.Data))
	return c.Conn.Send(&stamped)
}

func (c *ownershipConn) Recv() (*protocol.Message, error) {
	for i := range c.prev {
		c.prev[i] = 0xA5
	}
	c.prev = nil
	m, err := c.Conn.Recv()
	if err != nil || m.Type != protocol.TFileData {
		return m, err
	}
	if m.Seq&crcMark != 0 {
		sum := crc32.ChecksumIEEE(m.Data)
		c.o.mu.Lock()
		c.o.checked++
		if uint32(m.Seq) != sum {
			c.o.violations = append(c.o.violations, fmt.Sprintf(
				"%s at offset %d: CRC %08x at Send, %08x at delivery", m.FileName, m.Offset, uint32(m.Seq), sum))
		}
		c.o.mu.Unlock()
	}
	// The in-memory transport delivers the sender's own message: hand out a
	// copy of it rather than redirect its Data.
	out := *m
	out.Data = append([]byte(nil), m.Data...)
	c.prev = out.Data
	return &out, nil
}
