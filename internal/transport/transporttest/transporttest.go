// Package transporttest holds transport wrappers for tests of the code that
// sits on top of transport.Conn.
package transporttest

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"sync"

	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// Ownership wraps a transport so that every connection enforces the message
// ownership rule of transport.Conn as harshly as a conforming transport may,
// and catches the code that breaks it:
//
//   - A received message is a private deep copy that is poisoned as soon as
//     the next Recv on the connection starts: its Type becomes TInvalid, its
//     scalars and strings are zeroed, and every element of every slice it
//     references (Data, Files, Groups, Template, Results, Executes and their
//     Files, Strategy.CommonFiles) is overwritten. A receiver that still
//     reads the message then sees garbage, and the race detector sees a
//     race when another goroutine reads it.
//   - On a connection that does not copy (SendCopies false) the message
//     itself travels, so every sent message is snapshotted at Send — a deep
//     copy without Data, and the CRC of Data — and compared with what the
//     peer receives: a sender that reuses a message, one of its slices or a
//     payload buffer the connection has not copied is reported.
//   - On one that copies, every sent TFileData travels with the CRC of its
//     Data (in Seq, which the runtime leaves unused on data messages) and is
//     checked on delivery.
type Ownership struct {
	transport.Transport

	mu         sync.Mutex
	violations []string
	checked    int
	// inFlight holds, per message sent on a connection that does not copy,
	// the snapshots of its Sends not yet received, oldest first.
	inFlight map[*protocol.Message][]sentCopy
}

// sentCopy is a message as it was at Send.
type sentCopy struct {
	msg *protocol.Message // Snapshot: no Data
	crc uint32            // of Data
}

// NewOwnership wraps inner.
func NewOwnership(inner transport.Transport) *Ownership {
	return &Ownership{Transport: inner, inFlight: make(map[*protocol.Message][]sentCopy)}
}

// Violations lists the messages and payloads that changed between Send and
// delivery.
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

// sent queues the snapshot of m taken at its Send.
func (o *Ownership) sent(m *protocol.Message) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inFlight[m] = append(o.inFlight[m], sentCopy{Snapshot(m), crc32.ChecksumIEEE(m.Data)})
}

// unsent drops the snapshot of a Send of m that failed.
func (o *Ownership) unsent(m *protocol.Message) {
	o.mu.Lock()
	defer o.mu.Unlock()
	q := o.inFlight[m]
	if len(q) <= 1 {
		delete(o.inFlight, m)
		return
	}
	o.inFlight[m] = q[:len(q)-1]
}

// delivered compares m as received with its oldest snapshot, if it was sent
// through this checker.
func (o *Ownership) delivered(m *protocol.Message) {
	o.mu.Lock()
	defer o.mu.Unlock()
	q, ok := o.inFlight[m]
	if !ok {
		return
	}
	at := q[0]
	if len(q) == 1 {
		delete(o.inFlight, m)
	} else {
		o.inFlight[m] = q[1:]
	}
	if m.Type == protocol.TFileData {
		o.checked++
	}
	if sum := crc32.ChecksumIEEE(m.Data); sum != at.crc {
		o.violations = append(o.violations, fmt.Sprintf(
			"%s of %s at offset %d: payload CRC %08x at Send, %08x at delivery", m.Type, m.FileName, m.Offset, at.crc, sum))
	}
	if now := Snapshot(m); !reflect.DeepEqual(now, at.msg) {
		o.violations = append(o.violations, fmt.Sprintf(
			"%s message changed between Send and delivery: sent %+v, delivered %+v", at.msg.Type, *at.msg, *now))
	}
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
	prev *protocol.Message
}

func (c *ownershipConn) Send(m *protocol.Message) error {
	if !c.SendCopies() {
		c.o.sent(m)
		err := c.Conn.Send(m)
		if err != nil {
			c.o.unsent(m)
		}
		return err
	}
	if m.Type != protocol.TFileData {
		return c.Conn.Send(m)
	}
	stamped := *m
	stamped.Seq = crcMark | uint64(crc32.ChecksumIEEE(m.Data))
	return c.Conn.Send(&stamped)
}

func (c *ownershipConn) Recv() (*protocol.Message, error) {
	if c.prev != nil {
		poison(c.prev)
		c.prev = nil
	}
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	if !c.SendCopies() {
		c.o.delivered(m)
	} else if m.Type == protocol.TFileData && m.Seq&crcMark != 0 {
		sum := crc32.ChecksumIEEE(m.Data)
		c.o.mu.Lock()
		c.o.checked++
		if uint32(m.Seq) != sum {
			c.o.violations = append(c.o.violations, fmt.Sprintf(
				"%s at offset %d: CRC %08x at Send, %08x at delivery", m.FileName, m.Offset, uint32(m.Seq), sum))
		}
		c.o.mu.Unlock()
	}
	// The in-memory transport delivers the sender's own message, and the
	// TCP one its codec's: hand out a copy of it, never poison theirs.
	c.prev = clone(m)
	return c.prev, nil
}

// clone returns a deep copy of m: it shares no slice with m.
func clone(m *protocol.Message) *protocol.Message {
	out := Snapshot(m)
	out.Data = slices.Clone(m.Data)
	return out
}

// Snapshot returns a deep copy of m without its Data: it shares no slice with
// m. A test that keeps what a sender handed to Send records this, since a
// sender on a connection that copies may reuse the message and every slice
// of it once Send returns.
func Snapshot(m *protocol.Message) *protocol.Message {
	out := *m
	out.Data = nil
	out.Template = slices.Clone(m.Template)
	out.Strategy = m.Strategy.Clone()
	out.Files = slices.Clone(m.Files)
	out.Groups = slices.Clone(m.Groups)
	out.Results = slices.Clone(m.Results)
	out.Executes = slices.Clone(m.Executes)
	for i := range out.Executes {
		out.Executes[i].Files = slices.Clone(out.Executes[i].Files)
	}
	return &out
}

// poisoned is what a poisoned message's strings in slices read.
const poisoned = "\xa5poisoned"

// poison does to m what a conforming transport may do to a received message
// at the next Recv: every slice element is overwritten, then the message is
// zeroed with its Type set to TInvalid.
func poison(m *protocol.Message) {
	for i := range m.Data {
		m.Data[i] = 0xA5
	}
	for i := range m.Template {
		m.Template[i] = poisoned
	}
	for i := range m.Strategy.CommonFiles {
		m.Strategy.CommonFiles[i] = poisoned
	}
	poisonFiles(m.Files)
	for i := range m.Groups {
		m.Groups[i] = -1
	}
	for i := range m.Results {
		m.Results[i] = protocol.TaskResult{GroupIndex: -1, Worker: poisoned, Error: poisoned}
	}
	for i := range m.Executes {
		poisonFiles(m.Executes[i].Files)
		m.Executes[i] = protocol.ExecuteSpec{GroupIndex: -1}
	}
	*m = protocol.Message{Type: protocol.TInvalid}
}

func poisonFiles(fs []protocol.FileInfo) {
	for i := range fs {
		fs[i] = protocol.FileInfo{Name: poisoned, Size: -1}
	}
}
