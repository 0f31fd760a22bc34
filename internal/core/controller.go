package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"frieda/internal/protocol"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// ControllerConfig configures the control plane.
type ControllerConfig struct {
	// Strategy is the data-management strategy to install on the master.
	Strategy strategy.Config
	// Template is the execution syntax for template-driven workers.
	Template []string
	// Transport connects controller, master and spawned workers.
	Transport transport.Transport
	// MasterAddr is where the master listens (or is listening, when
	// InProcessMaster is false). An in-process master binds it before the
	// controller dials, and the controller and the workers it spawns dial
	// the address bound: with TCP, "127.0.0.1:0" takes a free port.
	MasterAddr string
	// InProcessMaster, when set, makes the controller create and serve the
	// master itself (library mode). Requires Master fields below. Wait then
	// takes the results from the master's own report, so the master's
	// MASTER_DONE carries only the run's figures (bytes, makespan, staging
	// time, output bytes); a standalone master sends the whole list.
	InProcessMaster bool
	// Master holds the master's own configuration in library mode. Only its
	// Transport and Addr are taken from the fields above; the strategy and
	// template reach the master as they reach any other, by START_MASTER.
	Master MasterConfig
	// Workers is the number of workers the master should wait for before
	// starting execution.
	Workers int
	// AckTimeout bounds each control-channel round trip (default 30s).
	AckTimeout time.Duration
}

// WorkerError is a failure the controller learned about — FRIEDA keeps
// track of all worker errors so remediation can be initiated (Section V-A,
// "Robust").
type WorkerError struct {
	Worker string
	Detail string
	At     time.Time
}

// Controller is FRIEDA's control-plane "intelligence": it configures the
// master, establishes worker membership, relays run-time decisions
// (elasticity, reconfiguration) over the open controller-master channel,
// and records failures.
type Controller struct {
	cfg    ControllerConfig
	master *Master // in-process master, when owned
	conn   transport.Conn

	mu   sync.Mutex
	seq  uint64
	errs []WorkerError
	// done is the run's summary from MASTER_DONE. An in-process master
	// sends it without Results: Wait reads them from the master itself.
	done     Report
	doneCh   chan struct{}
	doneOnce sync.Once
	acks     map[uint64]chan *protocol.Message
	spawned  sync.WaitGroup
	workers  map[string]*Worker
	masterWG sync.WaitGroup
	recvDone chan struct{} // closed when recvLoop has returned
	runErr   error
}

// NewController validates the configuration.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Transport == nil || cfg.MasterAddr == "" {
		return nil, errors.New("core: controller needs a transport and master address")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("core: controller expects %d workers", cfg.Workers)
	}
	if err := cfg.Strategy.Validate(); err != nil {
		return nil, err
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 30 * time.Second
	}
	return &Controller{
		cfg:     cfg,
		doneCh:  make(chan struct{}),
		acks:    make(map[uint64]chan *protocol.Message),
		workers: make(map[string]*Worker),
	}, nil
}

// Start spawns/connects the master, installs the strategy (START_MASTER)
// and announces the expected worker count (FORK_REMOTE_WORKERS).
func (c *Controller) Start(ctx context.Context) error {
	if c.cfg.InProcessMaster {
		if err := c.serveMaster(ctx); err != nil {
			return err
		}
	}

	// A remote master may start after its controller: retry the dial
	// briefly. An in-process one listens already, so it is dialled once.
	var conn transport.Conn
	var err error
	deadline := time.Now().Add(c.cfg.AckTimeout)
	for {
		conn, err = c.cfg.Transport.Dial(c.cfg.MasterAddr)
		if err == nil || c.cfg.InProcessMaster || time.Now().After(deadline) {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err != nil {
		return fmt.Errorf("core: controller dial master: %w", err)
	}
	c.conn = conn
	c.recvDone = make(chan struct{})
	go func() {
		pprof.SetGoroutineLabels(roleControllerRecv)
		defer close(c.recvDone)
		c.recvLoop()
	}()

	if _, err := c.roundTrip(&protocol.Message{
		Type:     protocol.TStartMaster,
		Strategy: c.cfg.Strategy,
		Template: c.cfg.Template,
	}); err != nil {
		return err
	}
	if _, err := c.roundTrip(&protocol.Message{Type: protocol.TForkWorkers, Workers: c.cfg.Workers}); err != nil {
		return err
	}
	return nil
}

// serveMaster makes the in-process master, binds its listener and serves it.
// The controller and the workers it spawns dial the address bound, so over
// TCP on port 0 they find the port the master was given. A master that
// cannot listen fails the start with its own error.
func (c *Controller) serveMaster(ctx context.Context) error {
	mc := c.cfg.Master
	mc.Transport = c.cfg.Transport
	mc.Addr = c.cfg.MasterAddr
	m, err := NewMaster(mc)
	if err != nil {
		return err
	}
	m.inProcess = true
	if err := m.listen(); err != nil {
		return err
	}
	c.master = m
	c.cfg.MasterAddr = m.Addr()
	c.masterWG.Add(1)
	go func() {
		pprof.SetGoroutineLabels(roleMasterAccept)
		defer c.masterWG.Done()
		if err := m.serve(ctx); err != nil {
			c.mu.Lock()
			c.runErr = err
			c.mu.Unlock()
		}
	}()
	return nil
}

// roundTrip sends a control message and waits for its ack.
func (c *Controller) roundTrip(m *protocol.Message) (*protocol.Message, error) {
	c.mu.Lock()
	c.seq++
	m.Seq = c.seq
	ch := make(chan *protocol.Message, 1)
	c.acks[m.Seq] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.acks, m.Seq)
		c.mu.Unlock()
	}()
	if err := c.conn.Send(m); err != nil {
		return nil, fmt.Errorf("core: control send %s: %w", m.Type, err)
	}
	select {
	case ack := <-ch:
		if ack.Error != "" {
			return ack, fmt.Errorf("core: %s rejected: %s", m.Type, ack.Error)
		}
		return ack, nil
	case <-time.After(c.cfg.AckTimeout):
		return nil, fmt.Errorf("core: %s not acknowledged within %v", m.Type, c.cfg.AckTimeout)
	}
}

// recvLoop consumes control-channel events: acks, worker errors and run
// completion.
func (c *Controller) recvLoop() {
	for {
		m, err := c.conn.Recv()
		if err != nil {
			c.doneOnce.Do(func() {
				c.mu.Lock()
				if c.runErr == nil && c.master == nil {
					c.runErr = fmt.Errorf("core: control channel lost: %w", err)
				}
				c.mu.Unlock()
				close(c.doneCh)
			})
			return
		}
		switch m.Type {
		case protocol.TAck:
			c.mu.Lock()
			if ch, ok := c.acks[m.Seq]; ok {
				// The waiter reads the ack after the next Recv has reused m.
				ack := *m
				ch <- &ack
			}
			c.mu.Unlock()
		case protocol.TWorkerError:
			c.mu.Lock()
			c.errs = append(c.errs, WorkerError{Worker: m.Worker, Detail: m.Error, At: time.Now()})
			c.mu.Unlock()
		case protocol.TMasterDone:
			c.mu.Lock()
			c.done = Report{
				Results:    slices.Clone(m.Results),
				BytesMoved: m.BytesMoved, MakespanSec: m.MakespanSec,
				TransferPhaseSec: m.TransferPhaseSec, OutputBytes: m.OutputBytes,
			}
			c.mu.Unlock()
			c.doneOnce.Do(func() { close(c.doneCh) })
		}
	}
}

// SpawnWorker starts an in-process worker (library mode): the paper's
// "controller forks the remote workers". The worker connects to the master
// and participates until shutdown.
func (c *Controller) SpawnWorker(ctx context.Context, cfg WorkerConfig) (*Worker, error) {
	cfg.Transport = c.cfg.Transport
	cfg.MasterAddr = c.cfg.MasterAddr
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	w, err := NewWorker(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.workers[cfg.Name] = w
	c.mu.Unlock()
	c.spawned.Add(1)
	go func() {
		pprof.SetGoroutineLabels(roleWorkerReader)
		defer c.spawned.Done()
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			c.mu.Lock()
			c.errs = append(c.errs, WorkerError{Worker: cfg.Name, Detail: err.Error(), At: time.Now()})
			c.mu.Unlock()
		}
	}()
	return w, nil
}

// RemoveWorker drains and releases a worker at run time (elastic scale-in).
func (c *Controller) RemoveWorker(name string) error {
	_, err := c.roundTrip(&protocol.Message{Type: protocol.TRemoveWorker, Worker: name})
	return err
}

// UpdateStrategy re-configures the master before execution starts — the
// run-time reconfiguration channel of Section II-D.
func (c *Controller) UpdateStrategy(s strategy.Config) error {
	if err := s.Validate(); err != nil {
		return err
	}
	_, err := c.roundTrip(&protocol.Message{Type: protocol.TPartitionType, Strategy: s})
	if err == nil {
		c.mu.Lock()
		c.cfg.Strategy = s // the master runs s: a report from MASTER_DONE names it
		c.mu.Unlock()
	}
	return err
}

// Errors returns the worker failures observed so far.
func (c *Controller) Errors() []WorkerError {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]WorkerError(nil), c.errs...)
}

// Wait blocks until the run completes and returns the report. With an
// in-process master the full report comes from it directly; otherwise it is
// reconstructed from the TMasterDone results.
func (c *Controller) Wait(ctx context.Context) (Report, error) {
	select {
	case <-c.doneCh:
	case <-ctx.Done():
		return Report{}, ctx.Err()
	}
	c.mu.Lock()
	runErr := c.runErr
	c.mu.Unlock()
	if runErr != nil {
		return Report{}, runErr
	}
	if c.master != nil {
		<-c.master.Done()
		return c.master.Report(), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.done
	r.Strategy, r.Groups = c.cfg.Strategy.String(), len(r.Results)
	for _, res := range r.Results {
		if res.OK {
			r.Succeeded++
		} else {
			r.Failed++
		}
	}
	for _, e := range c.errs {
		r.WorkerErrors = append(r.WorkerErrors, e.Worker+": "+e.Detail)
	}
	return r, nil
}

// Shutdown closes the run: the master's listener stops and in-process
// workers wind down. Call after Wait. Every goroutine the controller, its
// master and its workers started has exited when it returns.
func (c *Controller) Shutdown() error {
	var err error
	if c.conn != nil {
		_, err = c.roundTrip(&protocol.Message{Type: protocol.TShutdown})
		c.conn.Close()
		<-c.recvDone
	}
	c.masterWG.Wait()
	c.spawned.Wait()
	return err
}
