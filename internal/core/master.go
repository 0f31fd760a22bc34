package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/partition"
	"frieda/internal/protocol"
	"frieda/internal/sched"
	"frieda/internal/strategy"
	"frieda/internal/transfer"
	"frieda/internal/transport"
)

// DefaultChunkSize is the file-transfer chunk size.
const DefaultChunkSize = transfer.DefaultChunk

// MasterConfig configures the execution-plane master. The controller sends
// the strategy, template and expected workers (Fig. 4's START_MASTER and
// FORK_REMOTE_WORKERS).
type MasterConfig struct {
	// Source supplies input files. The master must run close to the source
	// (paper, Section II-B); in this implementation it IS the source
	// endpoint.
	Source catalog.Source
	// Transport and Addr is where the master listens.
	Transport transport.Transport
	Addr      string
	// ChunkSize overrides DefaultChunkSize; at most protocol.MaxChunk.
	ChunkSize int
	// Recover enables the paper's future-work extension: failed tasks and
	// the in-flight work of dead workers are requeued (up to MaxRetries per
	// group) instead of abandoned.
	Recover bool
	// MaxRetries bounds per-group retries under Recover (default 2).
	MaxRetries int
	// Batch is ignored: every group is dispatched by an EXECUTE of its own
	// and reported by a TASK_STATUS of its own. It remains only because
	// bench/rt.go:283 sets it and a change to the runtime may not edit
	// bench/; the benchmark change (ROADMAP item 1) removes that setting and
	// this field. Nothing else may set it.
	Batch bool
	// OutputSink, when set, collects result files the programs register
	// via Task.AddOutput — the paper's "results transferred to the master"
	// option. Nil leaves outputs on the workers (the evaluated setup).
	OutputSink Store
	// Logf, when set, receives diagnostic log lines.
	Logf func(format string, args ...any)
}

// link is one connection's sending side: the outbox the loop fills and the
// writer that drains it, the connection's only sender.
type link struct {
	conn   transport.Conn
	out    queue[outItem]
	taken  chan struct{}    // the loop has taken the reader's last event
	worker *masterWorker    // nil on the controller's connection
	exec   protocol.Message // the writer's EXECUTE, sent reused
	// lost is the writer's: the files whose source failed on their way
	// over this connection and that have not been sent whole since, by
	// source-catalogue index, with the source's error.
	lost map[int32]error
}

// masterWorker is the master's bookkeeping for one worker connection. The
// loop owns it; the reader reads only name.
type masterWorker struct {
	// Worker is the ledger's view. Ready is set once the writer has put the
	// ACK and the common files on the connection; until then the worker is
	// not counted towards the expected workers, dealt to or dispatched to.
	// Held is the files claimed for it, by source-catalogue index.
	sched.Worker[struct{}]
	link
	name    string
	cores   int
	settled bool // a status of this wake freed a slot: in Master.refills
}

// outItem is one unit of a writer's work: it sends msg, streams files, then
// dispatches group, each when set. The loop claims the files it streams.
type outItem struct {
	msg   *protocol.Message
	files []protocol.FileInfo
	// group runs by an EXECUTE of its own. send marks its files to stream
	// first, bit i for Files[i] (over 64 files, they are in files).
	group *partition.Group
	send  uint64
	// Once performed, ready makes the worker ready, and transfer, flushed,
	// closes a staging item.
	ready, transfer bool
}

// Master is the execution-plane coordinator: it partitions input data,
// transfers payloads and farms out executions according to the strategy the
// controller selected. One goroutine, the loop, owns its state. Each
// connection's reader only decodes and posts events to the loop's inbox;
// each connection's writer only sends what the loop put in its outbox.
type Master struct {
	cfg     MasterConfig
	inbox   queue[event]
	serving chan struct{} // closed once Serve has started the loop
	stopped chan struct{} // closed once the loop has returned
	done    chan struct{} // closed by the loop when every group is terminal
	wg      sync.WaitGroup
	// bytesMoved is the payload the writers streamed: each adds what it sent.
	bytesMoved atomic.Int64

	// Owned by the loop; strat, template and expected are the controller's.
	strat      strategy.Config
	template   []string
	configured bool            // START_MASTER came: workers are admitted
	parked     []*masterWorker // registrations that came before START_MASTER
	expected   int
	workers    []*masterWorker // admitted, in name order (find)
	catalogue  *catalog.Catalog
	groups     []partition.Group
	// led is the run's lifecycle and file plan, by source-catalogue index; it
	// starts once the groups are known.
	led *sched.Ledger[struct{}]
	// refills lists the workers this wake's statuses freed slots on; pass is
	// the outbox batch a dispatch pass builds.
	refills []*masterWorker
	pass    []outItem
	// now is the wake's time, in seconds since the run started, read once
	// per wake while the windows grow (sched.Ledger.Growing).
	now        float64
	results    []protocol.TaskResult
	workerErrs []string
	controller *link
	// inProcess is set by the Controller that runs the master: it reads the
	// results from Report, so MASTER_DONE carries only the run's figures.
	inProcess  bool
	listener   transport.Listener
	startedAt  time.Time
	finishedAt time.Time
	// stagingSec is the wall time of the pre- or no-partition staging phase.
	stagingSec  float64
	outputBytes int64
}

// NewMaster validates the configuration.
func NewMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Source == nil {
		return nil, errors.New("core: master needs a source")
	}
	if cfg.Transport == nil || cfg.Addr == "" {
		return nil, errors.New("core: master needs a transport address")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.ChunkSize > protocol.MaxChunk {
		return nil, fmt.Errorf("core: chunk size %d exceeds the protocol's %d", cfg.ChunkSize, protocol.MaxChunk)
	}
	m := &Master{
		cfg:     cfg,
		serving: make(chan struct{}),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
		led:     sched.NewLedger[struct{}](cfg.Recover, cfg.MaxRetries),
	}
	m.inbox.init()
	return m, nil
}

// logf writes a diagnostic line when logging is configured.
func (m *Master) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf("master: "+format, args...)
	}
}

// Done is closed when every group reached a terminal state.
func (m *Master) Done() <-chan struct{} { return m.done }

// Serve listens and coordinates until all work completes and the listener
// closes, or ctx is cancelled. Call it on its own goroutine; use Done to
// learn completion.
func (m *Master) Serve(ctx context.Context) error {
	if err := m.listen(); err != nil {
		return err
	}
	return m.serve(ctx)
}

// listen binds the master's listener.
func (m *Master) listen() error {
	l, err := m.cfg.Transport.Listen(m.cfg.Addr)
	m.listener = l
	return err
}

// Addr is the address the master's listener bound: with TCP on port 0, the
// port it was given. Valid once the master listens.
func (m *Master) Addr() string { return m.listener.Addr() }

// serve runs the loop and accepts connections on the bound listener.
func (m *Master) serve(ctx context.Context) error {
	pprof.SetGoroutineLabels(roleMasterAccept)
	l := m.listener
	go m.loop()
	close(m.serving)
	// The listener closes on ctx cancel or SHUTDOWN, not when the run is
	// done: the controller may still fetch reports.
	m.wg.Add(1)
	stop := context.AfterFunc(ctx, func() {
		defer m.wg.Done()
		l.Close()
		m.inbox.put(event{kind: evCancel})
	})
	for {
		conn, err := l.Accept()
		if err != nil {
			if stop() {
				m.wg.Done()
			}
			m.wg.Wait()
			m.inbox.close() // the loop handles what is queued, then returns
			<-m.stopped
			if ctx.Err() != nil || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		m.wg.Add(1)
		go func() {
			pprof.SetGoroutineLabels(roleMasterReader)
			defer m.wg.Done()
			m.read(conn)
		}()
	}
}

// read is a connection's reader: its first message says whose connection it
// is. It starts the writer, then posts each message as an event. It reads on
// while the connection holds a whole frame, and otherwise first waits for
// the loop to take the event (DESIGN.md, "Real-runtime control path").
func (m *Master) read(conn transport.Conn) {
	msg, err := conn.Recv()
	if err != nil {
		conn.Close()
		return
	}
	var l *link
	switch msg.Type {
	case protocol.TStartMaster:
		l = &link{}
	case protocol.TRegister:
		w := &masterWorker{name: msg.Worker, cores: msg.Cores}
		l, w.worker = &w.link, w
	default:
		m.logf("rejecting connection opening with %s", msg.Type)
		conn.Close()
		return
	}
	l.conn, l.taken = conn, make(chan struct{}, 1)
	l.out.init()
	m.wg.Add(1)
	go m.writer(l)
	if l.worker != nil {
		m.hand(event{kind: evRegister, l: l})
	} else {
		m.post(l, msg)
	}
	// SHUTDOWN is the controller's last request: its writer closes the
	// connection once the ack is sent.
	for l.worker != nil || msg.Type != protocol.TShutdown {
		if msg, err = conn.Recv(); err != nil {
			m.inbox.put(event{kind: evGone, l: l, err: err})
			return
		}
		m.post(l, msg)
	}
}

// post turns one received message into an event, a copy of what the loop
// needs of it. A returned output chunk is stored in the sink here, as the
// sink has its own lock: only its byte count reaches the loop.
func (m *Master) post(l *link, msg *protocol.Message) {
	ev := event{l: l}
	switch {
	case l.worker == nil:
		// The controller's open channel lets it re-configure the master at
		// run time without restart (Section II-D).
		ev.kind, ev.msg = evControl, &protocol.Message{
			Type: msg.Type, Seq: msg.Seq, Workers: msg.Workers, Worker: msg.Worker,
			Strategy: msg.Strategy.Clone(), Template: slices.Clone(msg.Template),
		}
	case msg.Type == protocol.TRequestData:
		ev.kind = evRequest
	case msg.Type == protocol.TTaskStatus:
		ev.kind, ev.res = evStatus, msg.Result
	case msg.Type == protocol.TFileData && m.cfg.OutputSink != nil:
		if err := storeChunk(m.cfg.OutputSink, l.conn, msg); err != nil {
			m.logf("storing output %s from %s: %v", msg.FileName, l.worker.name, err)
			return
		}
		// The loop need not run at once for a byte count: read on.
		m.inbox.put(event{kind: evOutput, l: l, n: int64(len(msg.Data))})
		return
	default:
		m.logf("worker %s sent unexpected %s", l.worker.name, msg.Type)
		return
	}
	m.hand(ev)
}

// hand posts a message's last event. Unless the connection holds another
// whole frame, it then waits until the loop has taken the event: the next
// Recv would block in the kernel, and the loop should run first.
func (m *Master) hand(ev event) {
	ev.wait = !ev.l.conn.Buffered()
	m.inbox.put(ev)
	if ev.wait {
		<-ev.l.taken
	}
}

// --- The loop ---

type evKind uint8

const (
	evRegister    evKind = iota // a worker's first frame: l.worker has its name and cores
	evControl                   // a controller request: msg
	evRequest                   // REQUEST_DATA
	evStatus                    // one task result, res
	evLost                      // the writer lost file n at the source, with err
	evOutput                    // n bytes of returned output are in the sink
	evGone                      // the connection's Recv failed with err
	evFailed                    // the writer failed with err, sending an item with msg
	evReady                     // the writer put the ACK and the common files on the wire
	evTransferred               // the writer put a transfer-phase item on the wire
	evReport                    // send report a Report
	evCancel                    // Serve's context ended
)

// event is one message to the loop, passed by value.
type event struct {
	kind   evKind
	l      *link
	msg    *protocol.Message
	res    protocol.TaskResult
	wait   bool // the reader waits for it to be taken
	n      int64
	err    error
	report chan Report
}

// loop is the one goroutine that owns the master's state. A wake takes
// every queued event and handles them in order, then refills the slots its
// statuses freed (group commit).
func (m *Master) loop() {
	pprof.SetGoroutineLabels(roleMasterLoop)
	defer close(m.stopped)
	var evs []event
	for open := true; open; {
		evs, open = m.inbox.take(true)
		if m.led.Growing() {
			m.now = time.Since(m.startedAt).Seconds()
		}
		for i := range evs {
			if evs[i].wait {
				evs[i].l.taken <- struct{}{}
			}
			m.handle(&evs[i])
		}
		clear(evs)
		m.refill()
	}
}

// refill ends a wake whose statuses freed slots: one dispatch pass per
// worker they freed slots on, each one outbox batch and so one write, then
// one completion check.
func (m *Master) refill() {
	if len(m.refills) == 0 {
		return
	}
	for _, w := range m.refills {
		w.settled = false
		m.dispatch(w)
	}
	clear(m.refills)
	m.refills = m.refills[:0]
	m.checkDone()
}

func (m *Master) handle(ev *event) {
	var w *masterWorker
	if ev.l != nil {
		w = ev.l.worker
	}
	switch ev.kind {
	case evRegister:
		if m.configured {
			m.admit(w)
		} else {
			// The ACK must carry the controller's strategy and template.
			m.parked = append(m.parked, w)
		}
	case evControl:
		m.control(ev.l, ev.msg)
	case evRequest:
		m.dispatch(w)
	case evStatus:
		// Every status of the wake is booked before refill refills.
		if m.recordResult(w, ev.res) && !w.settled {
			w.settled = true
			m.refills = append(m.refills, w)
		}
	case evOutput:
		m.outputBytes += ev.n
	case evLost:
		// The worker does not have the file, whatever its store holds
		// under the name: unclaimed, it is sent again to the next group
		// that needs it.
		m.logf("worker %s: %v", w.name, ev.err)
		w.Held.Remove(int32(ev.n))
	case evReady:
		m.led.Arrive(&w.Worker)
		m.maybeStart()
		m.dispatch(w)
	case evTransferred:
		if m.led.Staged(&w.Worker) { // not closed by the worker's death already
			m.stagingOver()
			m.dispatchAll()
		}
	case evGone, evFailed:
		switch {
		case w != nil && m.admitted(w):
			m.workerDied(w, ev.err)
			return
		case w != nil: // parked or refused
			m.parked = slices.DeleteFunc(m.parked, func(p *masterWorker) bool { return p == w })
		case ev.l == m.controller:
			if ev.kind == evFailed && ev.msg != nil && ev.msg.Type == protocol.TMasterDone {
				// The controller would wait for the report until its context
				// ends; the closed channel tells it the run is lost.
				m.logf("MASTER_DONE to controller: %v", ev.err)
				m.workerErrs = append(m.workerErrs, "master: MASTER_DONE to controller: "+ev.err.Error())
			}
			m.controller = nil
		}
		closeLink(ev.l)
	case evReport:
		ev.report <- m.report()
	case evCancel:
		for _, w := range m.parked {
			closeLink(&w.link)
		}
		m.parked = nil
	}
}

// closeLink ends a connection: its writer stops and its reader's Recv fails.
func closeLink(l *link) {
	l.out.close()
	l.conn.Close()
}

// control answers one controller request.
func (m *Master) control(l *link, req *protocol.Message) {
	var errStr string
	switch req.Type {
	case protocol.TStartMaster:
		if err := req.Strategy.Validate(); err != nil {
			m.ack(l, req.Seq, err.Error())
			l.out.close()
			return
		}
		m.controller, m.strat, m.configured = l, req.Strategy, true
		if len(req.Template) > 0 {
			m.template = req.Template
		}
		m.ack(l, req.Seq, "")
		for _, w := range m.parked {
			m.admit(w)
		}
		m.parked = nil
		return
	case protocol.TForkWorkers:
		m.expected = req.Workers
		m.ack(l, req.Seq, "")
		m.maybeStart()
		return
	case protocol.TPartitionType:
		if !m.startedAt.IsZero() {
			errStr = "execution already started; strategy is immutable mid-run"
		} else if err := req.Strategy.Validate(); err != nil {
			errStr = err.Error()
		} else {
			m.strat = req.Strategy
		}
	case protocol.TRemoveWorker:
		if err := m.removeWorker(req.Worker); err != nil {
			errStr = err.Error()
		}
	case protocol.TShutdown:
		// Close first, then ack: whoever sees the ack must find the
		// listener already gone.
		m.listener.Close()
		m.ack(l, req.Seq, "")
		l.out.close()
		return
	default:
		errStr = "unexpected " + req.Type.String()
	}
	m.ack(l, req.Seq, errStr)
}

func (m *Master) ack(l *link, seq uint64, errStr string) {
	l.out.put(outItem{msg: &protocol.Message{Type: protocol.TAck, Error: errStr, Seq: seq}})
}

// notifyController forwards a worker error on the control channel.
func (m *Master) notifyController(errStr, worker string) {
	if m.controller != nil {
		m.controller.out.put(outItem{msg: &protocol.Message{Type: protocol.TWorkerError, Worker: worker, Error: errStr}})
	}
}

// removeWorker drains a worker (elastic scale-in): no new groups are
// dispatched, outstanding work finishes, then the worker is shut down.
func (m *Master) removeWorker(name string) error {
	i, ok := m.find(name)
	if !ok || m.workers[i].Dead || !m.workers[i].Ready {
		return fmt.Errorf("core: no live worker %q", name)
	}
	if w := m.workers[i]; m.led.Drain(&w.Worker) {
		m.release(w)
	}
	m.dispatchAll()
	return nil
}

// find returns the index of the admitted worker named name in m.workers, or
// the index at which one of that name would be admitted.
func (m *Master) find(name string) (int, bool) {
	return slices.BinarySearchFunc(m.workers, name, func(w *masterWorker, name string) int { return strings.Compare(w.name, name) })
}

// admitted reports whether w is the worker admitted under its name.
func (m *Master) admitted(w *masterWorker) bool {
	i, ok := m.find(w.name)
	return ok && m.workers[i] == w
}

// release shuts down a drained worker the ledger has let go.
func (m *Master) release(w *masterWorker) {
	w.out.put(outItem{msg: &protocol.Message{Type: protocol.TShutdown}})
	m.logf("worker %s drained and released", w.name)
}

// admit joins a registered worker and queues its ACK and then the common
// files (e.g. the BLAST database), ahead of anything queued later.
func (m *Master) admit(w *masterWorker) {
	i, dup := m.find(w.name)
	if dup || w.name == "" {
		w.out.put(outItem{msg: &protocol.Message{Type: protocol.TAck, Error: "duplicate or empty worker name"}})
		w.out.close()
		return
	}
	slots := m.strat.Slots(w.cores)
	if err := m.led.Join(&w.Worker, slots); err != nil {
		// The cores came off the wire.
		w.out.put(outItem{msg: &protocol.Message{Type: protocol.TAck, Error: err.Error()}})
		w.out.close()
		return
	}
	m.reserveOutbox(w)
	m.workers = slices.Insert(m.workers, i, w)
	staged, err := m.commonFiles(w)
	if err != nil {
		m.workerDied(w, err)
		return
	}
	w.out.put(outItem{msg: &protocol.Message{
		Type: protocol.TAck, Cores: slots, Template: m.template,
		ReturnOutputs: m.cfg.OutputSink != nil, ExpectFiles: m.expectFiles(),
	}, files: staged, ready: true})
	m.logf("worker %s registered (%d cores, %d slots)", w.name, w.cores, slots)
}

// expectFiles is how many input files a worker admitted now can expect: every
// file without partitioning, none where the data is local, else its share of
// the files that are not common, rounded up. It is 0 until the controller has
// said how many workers to expect, and when the source cannot be listed: the
// start, which takes the same listing, reports that.
func (m *Master) expectFiles() int {
	if m.expected <= 0 || m.strat.Locality == strategy.Local {
		return 0
	}
	cat, err := m.sourceCatalog()
	if err != nil {
		return 0
	}
	n := cat.Len()
	if m.strat.Kind == strategy.NoPartition {
		return n
	}
	common := m.strat.CommonFiles
	for i, name := range common {
		if _, ok := cat.Index(name); ok && !slices.Contains(common[:i], name) {
			n--
		}
	}
	return (n + m.expected - 1) / m.expected
}

// reserveOutbox sizes w's outbox for a dispatch pass and an item besides.
// A pass is at most the Ceiling of w's window and at most the job's groups;
// before the start there are none, and runStrategy sizes it.
func (m *Master) reserveOutbox(w *masterWorker) {
	if len(m.groups) > 0 {
		w.out.reserve(min(m.led.Ceiling(&w.Worker), len(m.groups)) + 1)
	}
}

// sourceCatalog lists the source once, when first needed: by admission or
// common-file staging, which can come before the run starts, or by the start.
func (m *Master) sourceCatalog() (*catalog.Catalog, error) {
	if m.catalogue == nil {
		cat, err := m.cfg.Source.Catalog()
		if err != nil {
			return nil, fmt.Errorf("cataloguing source: %w", err)
		}
		m.catalogue = cat
	}
	return m.catalogue, nil
}

// commonFiles claims for w the strategy's common files, as the source lists
// them, that its writer is to stage. Local-data strategies stage nothing.
func (m *Master) commonFiles(w *masterWorker) ([]protocol.FileInfo, error) {
	if len(m.strat.CommonFiles) == 0 || m.strat.Locality != strategy.Remote {
		return nil, nil
	}
	cat, err := m.sourceCatalog()
	if err != nil {
		return nil, err
	}
	ids := make([]int32, 0, len(m.strat.CommonFiles))
	for _, name := range m.strat.CommonFiles {
		i, ok := cat.Index(name)
		if !ok {
			return nil, fmt.Errorf("staging common file %s: not in the source", name)
		}
		ids = append(ids, int32(i))
	}
	return m.claim(nil, w, ids), nil
}

// claim records the files ids as on their way to the worker and appends to
// dst those that were not already: the ones its writer is to stream.
func (m *Master) claim(dst []protocol.FileInfo, w *masterWorker, ids []int32) []protocol.FileInfo {
	for _, id := range ids {
		if w.Held.Add(id) {
			f := &m.catalogue.Files()[id]
			dst = append(dst, protocol.FileInfo{Name: f.Name, Size: f.Size})
		}
	}
	return dst
}

// maybeStart begins execution once the strategy is known and the expected
// number of workers arrived. A worker that died, even before it was ready,
// has been heard from: the run starts without it instead of waiting for it.
func (m *Master) maybeStart() {
	if !m.startedAt.IsZero() || m.expected <= 0 || m.led.Arrived() < m.expected {
		return
	}
	m.startedAt = time.Now()
	m.runStrategy()
}

// runStrategy partitions the inputs, starts the ledger on the groups — the
// pre-partition deal goes over the ready workers by name, so the assignment
// does not depend on registration order — and queues each worker's staging
// item. Nothing is dispatched until the last one is on the wire.
func (m *Master) runStrategy() {
	cat, err := m.sourceCatalog()
	if err != nil {
		m.fatal(err)
		return
	}
	if m.groups, err = m.strat.Groups(cat); err != nil {
		m.fatal(err)
		return
	}
	// Every generator groups the catalogue's own files, so each has an
	// index, and walks them in order at each position of its groups: a file
	// is looked for after the last one found, then at or after the one last
	// found at its position, and searched for only where all three miss.
	files, next := cat.Files(), 0
	var last []int // by position in a group
	ids, at := make([]int32, 0, len(m.groups)), make([]int32, len(m.groups)+1)
	for gi, g := range m.groups {
		for k, f := range g.Files {
			if k == len(last) {
				last = append(last, 0)
			}
			i := -1
			for _, c := range [...]int{next, last[k], last[k] + 1} {
				if c < len(files) && files[c].Name == f.Name {
					i = c
					break
				}
			}
			if i < 0 {
				i, _ = cat.Index(f.Name)
			}
			ids = append(ids, int32(i))
			next, last[k] = i+1, i
		}
		at[gi+1] = int32(len(ids))
	}
	m.led.Plan(ids, at)
	// The deal goes over the workers that can be given work, in name order.
	deal := make([]*sched.Worker[struct{}], 0, len(m.workers))
	for _, w := range m.workers {
		if w.Ready && w.Live() {
			deal = append(deal, &w.Worker)
		}
	}
	m.logf("execution starts: %d groups, %d workers, strategy %s", len(m.groups), len(deal), m.strat)
	m.results = slices.Grow(m.results, len(m.groups))
	m.led.Start(m.strat, len(m.groups), func() []partition.Group { return m.groups }, deal)
	// The loop's handoffs take, without growing, a wake in which every
	// group in flight reports and every worker posts one event more, a
	// dispatch pass and a wake's refills, however far the windows grow.
	// Sizes follow the groups, never a bare window: a window is cores off
	// the wire times the prefetch.
	window, windows := 0, 0
	for _, w := range m.workers {
		if !w.Ready || !w.Live() {
			continue
		}
		m.reserveOutbox(w)
		ceiling := m.led.Ceiling(&w.Worker)
		window, windows = max(window, ceiling), windows+ceiling
	}
	m.inbox.reserve(min(windows, len(m.groups)) + len(deal))
	m.pass = slices.Grow(m.pass, min(window, len(m.groups)))
	m.refills = slices.Grow(m.refills, len(deal))
	staging := false
	if m.strat.Kind != strategy.RealTime && m.strat.Locality == strategy.Remote {
		var all []int32
		if m.strat.Kind == strategy.NoPartition {
			all = make([]int32, cat.Len())
			for i := range all {
				all[i] = int32(i)
			}
		}
		for _, w := range m.workers {
			if w.Ready && w.Live() && w.out.put(m.stagingItem(w, all)) {
				m.led.Stage(&w.Worker)
				staging = true
			}
		}
	}
	if !staging && m.strat.Kind != strategy.RealTime {
		m.stagingOver()
	}
	m.dispatchAll()
}

// stagingItem is what w's writer streams before anything runs:
// no-partitioning streams the whole dataset, all; pre-partitioning announces
// the worker's share, then streams its unique files. Common files are not
// grouped, so none of the share was claimed before: one list is both.
// DISTRIBUTE carries the backlog itself: once dealt, the ledger only reads
// its array.
func (m *Master) stagingItem(w *masterWorker, all []int32) outItem {
	if m.strat.Kind == strategy.NoPartition {
		return outItem{files: m.claim(nil, w, all), transfer: true}
	}
	var files []protocol.FileInfo
	for _, gi := range w.Backlog {
		files = m.claim(files, w, m.led.Inputs(gi))
	}
	return outItem{
		msg:   &protocol.Message{Type: protocol.TDistribute, Files: files, Groups: w.Backlog},
		files: files, transfer: true,
	}
}

// stagingOver records the staging phase's wall time, from the start.
func (m *Master) stagingOver() {
	m.stagingSec = time.Since(m.startedAt).Seconds()
	m.logf("%s transfer phase done in %.3fs", m.strat.Kind, m.stagingSec)
}

// dispatchAll dispatches to every worker that can be given work, in name
// order, then checks for completion.
func (m *Master) dispatchAll() {
	for _, w := range m.workers {
		if w.Ready && w.Live() {
			m.dispatch(w)
		}
	}
	m.checkDone()
}

// dispatch hands the worker as much work as its window allows: each group
// it reserves is one item of one batch put to the worker's outbox.
func (m *Master) dispatch(w *masterWorker) {
	fetches := m.strat.Fetches()
	pass := m.pass
	for {
		gi, ok := m.led.Next(&w.Worker)
		if !ok {
			break
		}
		pass = append(pass, outItem{group: &m.groups[gi]})
		if fetches {
			m.claimGroup(w, &pass[len(pass)-1], gi)
		}
	}
	if len(pass) > 0 {
		w.out.put(pass...)
	}
	clear(pass)
	m.pass = pass[:0]
}

// claimGroup claims the files of it's group, gi, that the worker has not
// been sent, for the writer to stream ahead of the group's EXECUTE.
func (m *Master) claimGroup(w *masterWorker, it *outItem, gi int) {
	ids := m.led.Inputs(gi)
	if len(ids) > 64 {
		it.files = m.claim(nil, w, ids)
		return
	}
	for i, id := range ids {
		if w.Held.Add(id) {
			it.send |= 1 << i
		}
	}
}

// recordResult books one task outcome and reports whether it settled a
// dispatched group (and thus may have freed a slot worth refilling).
func (m *Master) recordResult(w *masterWorker, res protocol.TaskResult) bool {
	if res.GroupIndex < 0 {
		m.workerErrs = append(m.workerErrs, fmt.Sprintf("%s: %s", w.name, res.Error))
		m.notifyController(res.Error, w.name)
		return false
	}
	settled, released := m.led.Settle(&w.Worker, res.GroupIndex, m.now)
	if !settled {
		// Stale or duplicate status (e.g. after a death or reassignment).
		return false
	}
	if released {
		m.release(w)
	}
	if res.OK {
		m.led.Succeed(res.GroupIndex)
		m.results = append(m.results, res)
	} else if m.led.Fail(res.GroupIndex) {
		m.logf("group %d failed on %s (attempt %d), requeued: %s",
			res.GroupIndex, w.name, m.led.Attempts(res.GroupIndex), res.Error)
	} else {
		m.results = append(m.results, res)
	}
	return true
}

// workerDied isolates a dead worker: it receives no further data or tasks
// (the paper's automatic isolation), what it was sent goes with it (its
// name stays taken), its unfinished groups are requeued under Recover or
// abandoned otherwise, and the controller is informed.
func (m *Master) workerDied(w *masterWorker, cause error) {
	closeLink(&w.link)
	if w.Dead {
		return
	}
	// A disconnect after the run finished is a graceful departure (the
	// worker read NO_MORE_DATA and exited), not a failure.
	if m.led.Finished() {
		m.led.Kill(&w.Worker)
		return
	}
	// Its in-flight groups are lost in group order, then its backlog.
	affected := len(w.InFlight()) + len(w.Backlog)
	m.abandon(w.name, errWorkerLost, m.led.Die(&w.Worker)...)
	m.workerErrs = append(m.workerErrs, fmt.Sprintf("%s: %v", w.name, cause))
	m.logf("worker %s died: %v (%d groups affected)", w.name, cause, affected)
	m.notifyController(fmt.Sprintf("%v", cause), w.name)
	if m.led.Staged(&w.Worker) { // its staging item is lost with it
		m.stagingOver()
	}
	m.maybeStart() // it may have been the last expected worker not yet heard from
	m.dispatchAll()
}

// errWorkerLost is the failure recorded for a group whose worker died.
const errWorkerLost = "worker lost; task not restarted"

// abandon records groups the ledger made terminal as failed, on worker
// (empty when none), for the reason why.
func (m *Master) abandon(worker, why string, groups ...int) {
	for _, gi := range groups {
		m.results = append(m.results, protocol.TaskResult{GroupIndex: gi, Worker: worker, Error: why})
	}
}

// checkDone records what the ledger's stall rule abandons and finishes the
// run when every group is terminal.
func (m *Master) checkDone() {
	m.abandon("", "no live workers; abandoned", m.led.Abandon()...)
	if !m.led.Finished() || !m.finishedAt.IsZero() {
		return
	}
	m.finishedAt = time.Now()
	for _, w := range m.workers {
		if w.Ready && w.Live() {
			w.out.put(outItem{msg: &protocol.Message{Type: protocol.TNoMoreData}})
		}
	}
	if m.controller != nil {
		done := &protocol.Message{
			Type:             protocol.TMasterDone,
			BytesMoved:       m.bytesMoved.Load(),
			MakespanSec:      m.finishedAt.Sub(m.startedAt).Seconds(),
			TransferPhaseSec: m.stagingSec,
			OutputBytes:      m.outputBytes,
		}
		if !m.inProcess {
			done.Results = m.results // final: nothing appends after the finish
		}
		m.controller.out.put(outItem{msg: done})
	}
	m.logf("all %d groups terminal", len(m.groups))
	close(m.done)
}

// fatal aborts the run before it has groups: the ledger starts on none and
// the run finishes.
func (m *Master) fatal(err error) {
	m.logf("fatal: %v", err)
	m.workerErrs = append(m.workerErrs, "master: "+err.Error())
	m.groups = nil
	m.led.Start(m.strat, 0, nil, nil)
	m.notifyController(err.Error(), "")
	m.checkDone()
}

// --- Writers ---

// writer drains one connection's outbox. It holds the connection, performs
// everything queued and flushes when the outbox is empty, so a refill — its
// file chunks and its EXECUTE — and whatever was queued beside it leave in
// one write. It returns once the loop closed the outbox and what was queued
// before is sent, or on a failed send, which it posts to the loop. Either
// way it closes the connection.
func (m *Master) writer(l *link) {
	pprof.SetGoroutineLabels(roleMasterWriter)
	defer m.wg.Done()
	defer l.conn.Close()
	var items []outItem // the batch in hand
	held := false
	for open := true; open; {
		items, open = l.out.take(!held)
		if len(items) == 0 {
			if held {
				held = false
				if err := l.conn.Flush(); err != nil {
					m.inbox.put(event{kind: evFailed, l: l, err: err})
					return
				}
			}
			continue
		}
		if !held {
			l.conn.Hold()
			held = true
		}
		for i := range items {
			if err := m.perform(l, &items[i]); err != nil {
				m.inbox.put(event{kind: evFailed, l: l, err: err, msg: items[i].msg})
				return
			}
		}
		clear(items) // the batch is sent; keep none of it alive
	}
	if held {
		l.conn.Flush()
	}
}

// perform sends one outbox item on the connection.
func (m *Master) perform(l *link, it *outItem) error {
	if it.msg != nil {
		if err := l.conn.Send(it.msg); err != nil {
			return err
		}
	}
	for _, f := range it.files {
		// A common file (the ACK's item) is an input of every task the
		// worker runs: losing it ends the worker, as a failed send does.
		if err := m.stream(l, f.Name, f.Size); err != nil && (it.ready || !m.lose(l, f.Name, err)) {
			return err
		}
	}
	if g := it.group; g != nil {
		for i, f := range g.Files {
			if it.send&(1<<i) != 0 {
				if err := m.stream(l, f.Name, f.Size); err != nil && !m.lose(l, f.Name, err) {
					return err
				}
			}
		}
		if err := m.execute(l, g); err != nil {
			return err
		}
	}
	switch {
	case it.ready:
		m.inbox.put(event{kind: evReady, l: l})
	case it.transfer:
		// The phase times these bytes reaching the connection, not the
		// send buffer.
		err := l.conn.Flush()
		l.conn.Hold()
		if err != nil {
			return err
		}
		m.inbox.put(event{kind: evTransferred, l: l})
	}
	return nil
}

// execute orders g run: the EXECUTE is the link's message, its Files array
// reused. A group with an input lost on the connection is not ordered, as
// the worker may hold an older file under that name: the writer posts its
// failure, naming the input and the source's error, as the worker's
// status would be.
func (m *Master) execute(l *link, g *partition.Group) error {
	if len(l.lost) > 0 {
		for _, f := range g.Files {
			if err, lost := l.lost[m.fileID(f.Name)]; lost {
				m.inbox.put(event{kind: evStatus, l: l, res: protocol.TaskResult{
					GroupIndex: g.Index, Worker: l.worker.name,
					Error: fmt.Sprintf("core: input %q was not sent: %v", f.Name, err),
				}})
				return nil
			}
		}
	}
	x := &l.exec
	x.Type, x.GroupIndex, x.Files = protocol.TExecute, g.Index, x.Files[:0]
	for _, f := range g.Files {
		x.Files = append(x.Files, protocol.FileInfo{Name: f.Name, Size: f.Size})
	}
	return l.conn.Send(x)
}

// stream sends one source file on the connection. size is its catalogue
// size; a source that does not deliver exactly that many bytes fails the
// transfer. A file sent whole is no longer lost on the connection.
func (m *Master) stream(l *link, name string, size int64) error {
	sent, err := sendFile(l.conn, transfer.File{Name: name, Size: size}, m.cfg.Source, m.cfg.ChunkSize)
	m.bytesMoved.Add(sent)
	if err == nil && len(l.lost) > 0 {
		delete(l.lost, m.fileID(name))
	}
	return err
}

// fileID is a streamed file's source-catalogue index. The catalogue is
// listed before anything is claimed and never changes after, so a writer
// may read it.
func (m *Master) fileID(name string) int32 {
	i, _ := m.catalogue.Index(name)
	return int32(i)
}

// lose reports whether err is a failure of the source (transfer.ErrSource:
// the file did not open or read, or did not deliver its catalogue size)
// and, if so, records the file as lost on the connection and tells the
// loop, which unclaims it. The transfer stopped before its Last chunk, so
// the connection is good for what follows. Any other error is the
// connection's.
func (m *Master) lose(l *link, name string, err error) bool {
	if !errors.Is(err, transfer.ErrSource) {
		return false
	}
	if l.lost == nil {
		l.lost = make(map[int32]error)
	}
	id := m.fileID(name)
	l.lost[id] = err
	m.inbox.put(event{kind: evLost, l: l, n: int64(id), err: err})
	return true
}

// fileOpener is where sendFile takes a file from: the master's
// catalog.Source and a worker's Store both open files by name.
type fileOpener interface {
	Open(name string) (io.ReadCloser, error)
}

// sendFile streams one file of src over conn through the runtime's one chunk
// loop. A source that can hand out its bytes (catalog.MemSource, MemStore)
// is sent from them without a copy; any other is read.
func sendFile(conn transport.Conn, f transfer.File, src fileOpener, chunk int) (int64, error) {
	if mem, ok := src.(interface {
		Bytes(name string) ([]byte, bool)
	}); ok {
		if data, ok := mem.Bytes(f.Name); ok {
			return transfer.SendBytes(conn, f, data, chunk)
		}
	}
	rc, err := src.Open(f.Name)
	if err != nil {
		return 0, fmt.Errorf("%w: open %s: %w", transfer.ErrSource, f.Name, err)
	}
	defer rc.Close()
	return transfer.Send(conn, f, rc, chunk)
}

// --- Report ---

// Report summarises a finished run.
type Report struct {
	// Strategy is the effective strategy description.
	Strategy string
	// Groups is the total group count.
	Groups int
	// Succeeded and Failed partition the terminal outcomes.
	Succeeded, Failed int
	// Results holds every terminal task result. It is read-only: once the
	// run has finished, it is the master's own list.
	Results []protocol.TaskResult
	// WorkerErrors lists worker failures observed by the master.
	WorkerErrors []string
	// MakespanSec is wall time from execution start to completion.
	MakespanSec float64
	// TransferPhaseSec is the pre-partition/no-partition staging phase wall
	// time (0 for real-time, where transfer interleaves execution).
	TransferPhaseSec float64
	// BytesMoved counts payload bytes the master streamed.
	BytesMoved int64
	// OutputBytes counts result bytes workers returned (OutputSink mode).
	OutputBytes int64
}

// Report returns the run summary; valid once Done is closed, and safe to
// call at any time.
func (m *Master) Report() Report {
	select {
	case <-m.serving:
	default:
		return Report{Strategy: m.strat.String()} // nothing has run
	}
	reply := make(chan Report, 1)
	if m.inbox.put(event{kind: evReport, report: reply}) {
		return <-reply
	}
	<-m.stopped // the loop has returned: nothing writes the state any more
	return m.report()
}

// report summarises the state. Once the run has finished the result list is
// final — the loop appends to it only while a group is not terminal — so it
// is handed out as it is, clipped so that an append by the caller cannot
// write into its spare room; before that, a copy.
func (m *Master) report() Report {
	r := Report{
		Strategy:         m.strat.String(),
		Groups:           len(m.groups),
		WorkerErrors:     append([]string(nil), m.workerErrs...),
		TransferPhaseSec: m.stagingSec,
		BytesMoved:       m.bytesMoved.Load(),
		OutputBytes:      m.outputBytes,
	}
	for _, res := range m.results {
		if res.OK {
			r.Succeeded++
		} else {
			r.Failed++
		}
	}
	if m.finishedAt.IsZero() {
		r.Results = append([]protocol.TaskResult(nil), m.results...)
	} else {
		r.Results = slices.Clip(m.results)
		r.MakespanSec = m.finishedAt.Sub(m.startedAt).Seconds()
	}
	return r
}
