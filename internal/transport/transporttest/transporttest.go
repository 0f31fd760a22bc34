// Package transporttest holds transport wrappers for tests of the code that
// sits on top of transport.Conn.
package transporttest

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// Ownership wraps a transport so that every connection enforces the message
// ownership rule of transport.Conn as harshly as a conforming transport may,
// and catches the code that breaks it:
//
//   - A received message is a private deep copy of the envelope that is
//     poisoned as soon as the next Recv on the connection starts: its Type
//     becomes TInvalid, its scalars and strings are zeroed, and every element
//     of every slice it references (Files, Groups, Template, Results, Executes
//     and their Files, Strategy.CommonFiles) is overwritten. So is its Data
//     on a connection that copies (SendCopies); on one that does not, Data is
//     the sender's, handed over, and the receiver may keep it. A receiver
//     that still reads the message then sees garbage, and the race detector
//     sees a race when another goroutine reads it.
//   - Every sent TFileData travels with the CRC of its Data at Send (in Seq,
//     which the runtime leaves unused on data messages) and is checked on
//     delivery.
//   - On a connection that does not copy, every delivered Data is checked
//     against that CRC again whenever Violations is read: a sender that
//     modifies a payload it has handed over is reported, whenever it does.
type Ownership struct {
	transport.Transport

	mu         sync.Mutex
	violations []string
	checked    int
	// handed holds every payload delivered on a connection that does not
	// copy, with its CRC at Send.
	handed []handedData
}

// handedData is one payload a receiver got from its sender's hands.
type handedData struct {
	file   string
	offset int64
	data   []byte
	crc    uint32
}

// NewOwnership wraps inner.
func NewOwnership(inner transport.Transport) *Ownership {
	return &Ownership{Transport: inner}
}

// Violations lists the payloads that changed between Send and delivery, and
// the handed-over payloads that have changed since.
func (o *Ownership) Violations() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := slices.Clone(o.violations)
	for _, h := range o.handed {
		if sum := crc32.ChecksumIEEE(h.data); sum != h.crc {
			out = append(out, fmt.Sprintf(
				"%s at offset %d: CRC %08x at Send, %08x after delivery", h.file, h.offset, h.crc, sum))
		}
	}
	return out
}

// Checked reports how many data messages were verified on delivery.
func (o *Ownership) Checked() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.checked
}

// delivered checks a TFileData as received against the CRC its sender
// stamped, and keeps a handed-over payload for the later checks.
func (o *Ownership) delivered(m *protocol.Message, crc uint32, handed bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checked++
	if sum := crc32.ChecksumIEEE(m.Data); sum != crc {
		o.violations = append(o.violations, fmt.Sprintf(
			"%s at offset %d: CRC %08x at Send, %08x at delivery", m.FileName, m.Offset, crc, sum))
	}
	if handed {
		o.handed = append(o.handed, handedData{m.FileName, m.Offset, m.Data, crc})
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
	if m.Type != protocol.TFileData {
		return c.Conn.Send(m)
	}
	stamped := *m
	stamped.Seq = crcMark | uint64(crc32.ChecksumIEEE(m.Data))
	return c.Conn.Send(&stamped)
}

func (c *ownershipConn) Recv() (*protocol.Message, error) {
	copies := c.SendCopies()
	if c.prev != nil {
		poison(c.prev, copies)
		c.prev = nil
	}
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	// Hand out a copy of the transport's envelope, never poison its own;
	// Data is copied only where the transport's is reused.
	c.prev = Snapshot(m)
	c.prev.Data = m.Data
	if copies {
		c.prev.Data = slices.Clone(m.Data)
	}
	if m.Type == protocol.TFileData && m.Seq&crcMark != 0 {
		c.prev.Seq = 0
		c.o.delivered(c.prev, uint32(m.Seq), !copies)
	}
	return c.prev, nil
}

// Snapshot returns a deep copy of m without its Data: it shares no slice with
// m. A test that keeps what a sender handed to Send records this, since a
// sender may reuse the message and every slice of it once Send returns.
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
// at the next Recv: every slice element is overwritten — Data's only where
// the transport copies it — then the message is zeroed with its Type set to
// TInvalid.
func poison(m *protocol.Message, data bool) {
	if data {
		for i := range m.Data {
			m.Data[i] = 0xA5
		}
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
