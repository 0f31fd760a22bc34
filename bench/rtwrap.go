package main

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/core"
	"frieda/internal/protocol"
	"frieda/internal/transport"
)

// rtTrace accumulates what the tracing wrappers see over the traced jobs of
// one rt_* workload. Every layer is measured from outside: the wrappers
// implement the interfaces the runtime already accepts and time the calls
// that cross them.
type rtTrace struct {
	spans *spanLog

	// Durations in nanoseconds, summed over all traced jobs.
	sendBusy, recvWait               atomic.Int64
	programBusy                      atomic.Int64
	storeWrite, storeRead            atomic.Int64
	sourceRead, outputReturn         atomic.Int64
	ctrlMsgs, dataMsgs, wireBytes    atomic.Int64
	dials, dialNs                    atomic.Int64
	jobs                             int
	makespans, transferPhases        []float64
	starts, registers, firsts, waits []float64 // per job, seconds
	shutdowns                        []float64

	mu sync.Mutex
	// rtts and gaps are the master-side timeline samples, microseconds.
	rtts, gaps []float64

	// Per job.
	iter      int
	jobSpan   int
	jobStart  time.Time
	spawnAt   time.Time
	lastAck   atomic.Int64 // ns after jobStart of the last registration ack
	firstTask atomic.Int64 // ns after jobStart of the first Program.Run
}

func newRTTrace(workload string) *rtTrace {
	return &rtTrace{spans: &spanLog{workload: workload}}
}

func (t *rtTrace) beginJob(iter int) {
	t.iter = iter
	t.jobStart = time.Now()
	t.jobSpan = t.spans.open("job", "", iter, -1, t.jobStart)
	t.lastAck.Store(0)
	t.firstTask.Store(0)
}

func (t *rtTrace) endJob() {
	t.spans.finish(t.jobSpan, time.Now())
	t.jobs++
	if ack := t.lastAck.Load(); ack > 0 && !t.spawnAt.IsZero() {
		t.registers = append(t.registers, (time.Duration(ack) - t.spawnAt.Sub(t.jobStart)).Seconds())
	}
	if first := t.firstTask.Load(); first > 0 {
		t.firsts = append(t.firsts, time.Duration(first).Seconds())
	}
}

// phase opens a span around one controller call and returns the function
// that closes it. On a nil trace (untraced job) both do nothing.
func (t *rtTrace) phase(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	seq := t.spans.open(name, "", t.iter, t.jobSpan, start)
	if name == "core.spawn_workers" {
		t.spawnAt = start
	}
	return func() {
		end := time.Now()
		t.spans.finish(seq, end)
		d := end.Sub(start).Seconds()
		switch name {
		case "core.controller_start":
			t.starts = append(t.starts, d)
		case "core.wait":
			t.waits = append(t.waits, d)
		case "core.shutdown":
			t.shutdowns = append(t.shutdowns, d)
		}
	}
}

func (t *rtTrace) noteReport(rep core.Report) {
	t.makespans = append(t.makespans, rep.MakespanSec)
	t.transferPhases = append(t.transferPhases, rep.TransferPhaseSec)
}

// wrapProgram times every Program.Run.
func (t *rtTrace) wrapProgram(inner core.Program) core.Program {
	return core.FuncProgram(func(ctx context.Context, task core.Task) (string, error) {
		start := time.Now()
		t.firstTask.CompareAndSwap(0, int64(start.Sub(t.jobStart)))
		out, err := inner.Run(ctx, task)
		end := time.Now()
		t.programBusy.Add(int64(end.Sub(start)))
		t.spans.add("core.program_run", "", t.iter, t.jobSpan, start, end)
		return out, err
	})
}

// values summarises the traced jobs. Sums are reported per job.
func (t *rtTrace) values() values {
	if t == nil || t.jobs == 0 {
		return values{}
	}
	perJob := func(ns *atomic.Int64) float64 { return time.Duration(ns.Load()).Seconds() / float64(t.jobs) }
	count := func(n *atomic.Int64) float64 { return float64(n.Load()) / float64(t.jobs) }
	t.mu.Lock()
	defer t.mu.Unlock()
	v := values{
		"transport.send_busy_s":        perJob(&t.sendBusy),
		"transport.recv_wait_s":        perJob(&t.recvWait),
		"transport.ctrl_msgs":          count(&t.ctrlMsgs),
		"transport.data_msgs":          count(&t.dataMsgs),
		"transport.wire_bytes":         count(&t.wireBytes),
		"core.controller_start_ms":     median(t.starts) * 1e3,
		"core.register_ms":             median(t.registers) * 1e3,
		"core.first_task_ms":           median(t.firsts) * 1e3,
		"core.wait_s":                  median(t.waits),
		"core.shutdown_ms":             median(t.shutdowns) * 1e3,
		"core.report_makespan_s":       median(t.makespans),
		"core.report_transfer_phase_s": median(t.transferPhases),
		"core.task_rtt_us_p50":         quantile(t.rtts, 0.5),
		"core.task_rtt_us_p99":         quantile(t.rtts, 0.99),
		"core.dispatch_gap_us_p50":     quantile(t.gaps, 0.5),
		"core.dispatch_gap_us_p99":     quantile(t.gaps, 0.99),
		"core.program_busy_s":          perJob(&t.programBusy),
		"core.store_write_s":           perJob(&t.storeWrite),
		"core.store_read_s":            perJob(&t.storeRead),
		"core.output_return_s":         perJob(&t.outputReturn),
		"catalog.source_read_s":        perJob(&t.sourceRead),
	}
	if n := t.dials.Load(); n > 0 {
		v["transport.dial_accept_ms"] = float64(t.dialNs.Load()) / float64(n) / 1e6
	}
	return v
}

// traceTransport wraps every connection of a job in a traceConn.
type traceTransport struct {
	transport.Transport
	t *rtTrace
}

func (tt *traceTransport) Listen(addr string) (transport.Listener, error) {
	ln, err := tt.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: ln, t: tt.t}, nil
}

// Dial times connection set-up: the dial plus the listener's accept.
func (tt *traceTransport) Dial(addr string) (transport.Conn, error) {
	start := time.Now()
	c, err := tt.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	tt.t.dials.Add(1)
	tt.t.dialNs.Add(int64(time.Since(start)))
	return &traceConn{Conn: c, t: tt.t}, nil
}

type traceListener struct {
	transport.Listener
	t *rtTrace
}

func (l *traceListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, t: l.t, master: true, execAt: make(map[int]time.Time)}, nil
}

// traceConn times Send and Recv and classes messages by Message.Type. On
// the master's side of a worker connection it also keeps the timeline the
// task round trip and the dispatch gap are read from.
type traceConn struct {
	transport.Conn
	t *rtTrace
	// master is true for accepted connections.
	master bool
	// worker is set once a dialled connection has sent TRegister.
	worker atomic.Bool
	acked  bool // only the connection's single receiver touches it

	mu sync.Mutex
	// execAt is when each group's TExecute was handed to Send.
	execAt map[int]time.Time
	// trigger is when the oldest unanswered TTaskStatus or TRequestData
	// arrived; the next Send on the connection answers it.
	trigger time.Time
}

func (c *traceConn) Send(m *protocol.Message) error {
	start := time.Now()
	if c.master {
		c.mu.Lock()
		if !c.trigger.IsZero() {
			gap := float64(start.Sub(c.trigger)) / float64(time.Microsecond)
			c.trigger = time.Time{}
			c.t.mu.Lock()
			c.t.gaps = append(c.t.gaps, gap)
			c.t.mu.Unlock()
		}
		switch m.Type {
		case protocol.TExecute:
			c.execAt[m.GroupIndex] = start
		case protocol.TExecuteBatch:
			for _, e := range m.Executes {
				c.execAt[e.GroupIndex] = start
			}
		}
		c.mu.Unlock()
	} else if m.Type == protocol.TRegister {
		c.worker.Store(true)
	}
	size := int64(m.WireSize()) // the in-memory transport hands m to the peer
	data := m.Type == protocol.TFileData
	err := c.Conn.Send(m)
	c.t.sendBusy.Add(int64(time.Since(start)))
	if data {
		c.t.dataMsgs.Add(1)
	} else {
		c.t.ctrlMsgs.Add(1)
	}
	c.t.wireBytes.Add(size)
	return err
}

func (c *traceConn) Recv() (*protocol.Message, error) {
	start := time.Now()
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	now := time.Now()
	switch {
	case c.master:
		if m.Type != protocol.TTaskStatus && m.Type != protocol.TRequestData {
			break
		}
		c.mu.Lock()
		if c.trigger.IsZero() {
			c.trigger = now
		}
		if m.Type == protocol.TTaskStatus {
			results := m.Results
			if len(results) == 0 {
				results = []protocol.TaskResult{m.Result}
			}
			for _, r := range results {
				if sent, ok := c.execAt[r.GroupIndex]; ok {
					delete(c.execAt, r.GroupIndex)
					rtt := float64(now.Sub(sent)) / float64(time.Microsecond)
					c.t.mu.Lock()
					c.t.rtts = append(c.t.rtts, rtt)
					c.t.mu.Unlock()
				}
			}
		}
		c.mu.Unlock()
	case c.worker.Load():
		// Time a worker's receiver sat waiting for the master.
		c.t.recvWait.Add(int64(now.Sub(start)))
		if !c.acked && m.Type == protocol.TAck {
			c.acked = true
			if at := int64(now.Sub(c.t.jobStart)); at > c.t.lastAck.Load() {
				c.t.lastAck.Store(at)
			}
		}
	}
	return m, nil
}

// traceStore times a Store's writes and reads: a worker's input store, or
// the master's output sink.
type traceStore struct {
	core.Store
	t    *rtTrace
	sink bool
}

func (s *traceStore) write() *atomic.Int64 {
	if s.sink {
		return &s.t.outputReturn
	}
	return &s.t.storeWrite
}

func (s *traceStore) Put(name string, r io.Reader) (int64, error) {
	start := time.Now()
	n, err := s.Store.Put(name, r)
	s.write().Add(int64(time.Since(start)))
	return n, err
}

func (s *traceStore) Append(name string, offset int64, data []byte) error {
	start := time.Now()
	err := s.Store.Append(name, offset, data)
	s.write().Add(int64(time.Since(start)))
	return err
}

func (s *traceStore) Open(name string) (io.ReadCloser, error) {
	start := time.Now()
	rc, err := s.Store.Open(name)
	s.t.storeRead.Add(int64(time.Since(start)))
	if err != nil {
		return nil, err
	}
	return &timedReader{ReadCloser: rc, busy: &s.t.storeRead}, nil
}

// traceSource times the master's reads of the input source.
type traceSource struct {
	catalog.Source
	t *rtTrace
}

func (s *traceSource) Catalog() (*catalog.Catalog, error) {
	start := time.Now()
	c, err := s.Source.Catalog()
	s.t.sourceRead.Add(int64(time.Since(start)))
	return c, err
}

func (s *traceSource) Open(name string) (io.ReadCloser, error) {
	start := time.Now()
	rc, err := s.Source.Open(name)
	s.t.sourceRead.Add(int64(time.Since(start)))
	if err != nil {
		return nil, err
	}
	return &timedReader{ReadCloser: rc, busy: &s.t.sourceRead}, nil
}

// timedReader adds the time spent in Read to busy.
type timedReader struct {
	io.ReadCloser
	busy *atomic.Int64
}

func (r *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.ReadCloser.Read(p)
	r.busy.Add(int64(time.Since(start)))
	return n, err
}
