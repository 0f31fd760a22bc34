package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/protocol"
	"frieda/internal/sched"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// startMaster spins up a master over the in-memory transport, configures it
// as a controller's Start does — START_MASTER with strat, then
// FORK_REMOTE_WORKERS of workers when > 0 — and returns a dialer. The
// controller's connection stays open until the test ends, its messages read
// and dropped.
func startMaster(t *testing.T, cfg MasterConfig, strat strategy.Config, workers int) (*Master, *transport.Mem, context.CancelFunc) {
	t.Helper()
	tr := transport.NewMem(nil)
	cfg.Transport = tr
	cfg.Addr = "m"
	if cfg.Source == nil {
		src := catalog.NewMemSource()
		for i := 0; i < 4; i++ {
			src.Put(fmt.Sprintf("f%d", i), []byte("data"))
		}
		cfg.Source = src
	}
	m, err := NewMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go m.Serve(ctx)
	// Wait for the listener.
	deadline := time.Now().Add(5 * time.Second)
	var conn transport.Conn
	for conn == nil {
		if conn, err = tr.Dial("m"); err != nil && time.Now().After(deadline) {
			t.Fatal("master never listened")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() { conn.Close() })
	config := []*protocol.Message{{Type: protocol.TStartMaster, Strategy: strat, Seq: 1}}
	if workers > 0 {
		config = append(config, &protocol.Message{Type: protocol.TForkWorkers, Workers: workers, Seq: 2})
	}
	for _, msg := range config {
		if e := request(t, conn, msg); e != "" {
			t.Fatalf("%s: %s", msg.Type, e)
		}
	}
	go func() {
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	return m, tr, cancel
}

// dialTCPMaster starts a master over TCP loopback, so that every message
// between it and the test crosses the real codec, and returns the master, an
// open controller connection and the transport. Its source holds one file,
// "db".
func dialTCPMaster(t *testing.T) (*Master, transport.Conn, transport.Transport) {
	t.Helper()
	tr := transport.NewTCP()
	src := catalog.NewMemSource()
	src.Put("db", []byte("d"))
	m, err := NewMaster(MasterConfig{Source: src, Transport: tr, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go m.Serve(ctx)
	<-m.serving
	conn, err := tr.Dial(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return m, conn, tr
}

// request sends msg and returns the ack's error text.
func request(t *testing.T, conn transport.Conn, msg *protocol.Message) string {
	t.Helper()
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != protocol.TAck || ack.Seq != msg.Seq {
		t.Fatalf("reply to %s = %+v, want its ack", msg.Type, ack)
	}
	return ack.Error
}

// masterStrategy describes the strategy the master will run, as its report
// does.
func masterStrategy(m *Master) string { return m.Report().Strategy }

// TestStrategyInfoRoundTrip sends each named strategy, and one with every
// optional field set, from a controller to a master over TCP: the master
// adopts it unchanged, as its report names it and, for the common files, as a
// registering worker is staged them.
func TestStrategyInfoRoundTrip(t *testing.T) {
	cases := []strategy.Config{
		strategy.PrePartitionedLocal,
		strategy.PrePartitionedRemote,
		strategy.RealTimeRemote,
		strategy.CommonData,
		{Kind: strategy.RealTime, Grouping: "all-to-all", Prefetch: 4, CommonFiles: []string{"db"}},
	}
	for _, cfg := range cases {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		m, conn, tr := dialTCPMaster(t)
		if e := request(t, conn, &protocol.Message{Type: protocol.TStartMaster, Strategy: cfg, Seq: 1}); e != "" {
			t.Fatalf("%s: %s", cfg, e)
		}
		if got := masterStrategy(m); got != cfg.String() {
			t.Fatalf("round trip mangled %s -> %s", cfg, got)
		}
		if len(cfg.CommonFiles) == 0 {
			continue
		}
		w, err := tr.Dial(m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		w.Send(&protocol.Message{Type: protocol.TRegister, Worker: "w0", Cores: 1})
		for _, want := range []protocol.Type{protocol.TAck, protocol.TFileData} {
			if msg, err := w.Recv(); err != nil || msg.Type != want || want == protocol.TFileData && msg.FileName != "db" {
				t.Fatalf("%s: worker got %+v, %v; want %s (of db)", cfg, msg, err, want)
			}
		}
		w.Close()
	}
}

// TestStrategyInfoRoundTripGrid sweeps the full Kind × Locality × Placement
// × Multicore × Prefetch space through one controller connection: every
// configuration the strategy layer validates arrives at the master
// unchanged, and every one it rejects is refused on arrival and leaves the
// master's strategy as it was.
func TestStrategyInfoRoundTripGrid(t *testing.T) {
	m, conn, _ := dialTCPMaster(t)
	if e := request(t, conn, &protocol.Message{Type: protocol.TStartMaster, Strategy: strategy.RealTimeRemote, Seq: 1}); e != "" {
		t.Fatal(e)
	}
	kinds := []strategy.Kind{strategy.NoPartition, strategy.PrePartition, strategy.RealTime}
	locs := []strategy.Locality{strategy.Remote, strategy.Local}
	places := []strategy.Placement{strategy.DataToCompute, strategy.ComputeToData}
	valid, invalid, seq := 0, 0, uint64(1)
	for _, k := range kinds {
		for _, l := range locs {
			for _, p := range places {
				for _, mc := range []bool{false, true} {
					for _, pf := range []int{0, 1, 8} {
						cfg := strategy.Config{Kind: k, Locality: l, Placement: p, Multicore: mc, Prefetch: pf}
						before := masterStrategy(m)
						seq++
						e := request(t, conn, &protocol.Message{Type: protocol.TPartitionType, Strategy: cfg, Seq: seq})
						if err := cfg.Validate(); err != nil {
							// Invalid combination (e.g. no-partition +
							// compute-to-data): the master must refuse it
							// too, not smuggle it through.
							if e == "" {
								t.Errorf("%s: Validate rejects (%v) but the master accepts", cfg, err)
							}
							if got := masterStrategy(m); got != before {
								t.Errorf("%s: refused strategy changed the master's to %s", cfg, got)
							}
							invalid++
							continue
						}
						valid++
						if e != "" {
							t.Fatalf("%s: %s", cfg, e)
						}
						if got := masterStrategy(m); got != cfg.String() {
							t.Fatalf("round trip mangled %s -> %s", cfg, got)
						}
					}
				}
			}
		}
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("grid degenerate: %d valid, %d invalid", valid, invalid)
	}
}

func TestMasterRejectsUnknownFirstMessage(t *testing.T) {
	m, tr, cancel := startMaster(t, MasterConfig{}, strategy.RealTimeRemote, 1)
	defer cancel()
	_ = m
	conn, err := tr.Dial("m")
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(&protocol.Message{Type: protocol.TRequestData})
	if _, err := conn.Recv(); err == nil {
		t.Fatal("master kept a connection that opened with REQUEST_DATA")
	}
}

// START_MASTER with a strategy the strategy layer refuses is refused with an
// error ACK, and the master keeps the strategy it had.
func TestMasterRejectsBadStrategyFromController(t *testing.T) {
	m, tr, cancel := startMaster(t, MasterConfig{}, strategy.RealTimeRemote, 1)
	defer cancel()
	refuseStrategies(t, m, tr, strategy.Config{Kind: strategy.RealTime, Locality: strategy.Local})
}

// A master from NewMaster refuses enums outside their constants, for which
// runStrategy has no case and a run would never finish. NewMaster takes no
// strategy, so START_MASTER is where they arrive.
func TestNewMasterRejectsOutOfRangeStrategy(t *testing.T) {
	m, tr, cancel := startMaster(t, MasterConfig{}, strategy.RealTimeRemote, 1)
	defer cancel()
	refuseStrategies(t, m, tr, strategy.Config{Kind: 7}, strategy.Config{Locality: 7}, strategy.Config{Placement: -1})
}

// refuseStrategies sends each strategy in a START_MASTER of its own and
// checks it is refused with an error ACK and leaves m running
// RealTimeRemote.
func refuseStrategies(t *testing.T, m *Master, tr *transport.Mem, strats ...strategy.Config) {
	t.Helper()
	for _, s := range strats {
		conn, err := tr.Dial("m")
		if err != nil {
			t.Fatal(err)
		}
		conn.Send(&protocol.Message{Type: protocol.TStartMaster, Strategy: s, Seq: 1})
		ack, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ack.Error == "" {
			t.Errorf("START_MASTER accepted %s", s)
		}
		conn.Close()
		if got := masterStrategy(m); got != strategy.RealTimeRemote.String() {
			t.Errorf("refusing %s left the master running %s", s, got)
		}
	}
}

// A registration's cores come off the wire: a multicore worker whose window
// would not fit is refused with an error ACK. One of exactly sched.MaxSlots
// cores is admitted and runs the job, and the master's queues are sized by
// the groups there are, not by its window of millions.
func TestMasterRefusesWindowThatDoesNotFit(t *testing.T) {
	m, tr, cancel := startMaster(t, MasterConfig{}, strategy.RealTimeRemote, 1)
	defer cancel()
	register := func(name string, cores int) (transport.Conn, string) {
		conn, err := tr.Dial("m")
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(&protocol.Message{Type: protocol.TRegister, Worker: name, Cores: cores}); err != nil {
			t.Fatal(err)
		}
		ack, err := conn.Recv()
		if err != nil || ack.Type != protocol.TAck {
			t.Fatalf("reply to %s's registration: %+v, %v", name, ack, err)
		}
		return conn, ack.Error
	}
	conn, e := register("huge", sched.MaxSlots+1)
	conn.Close()
	if !strings.Contains(e, "slots") {
		t.Fatalf("a worker of %d cores admitted (ack error %q)", sched.MaxSlots+1, e)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, e = register("widest", sched.MaxSlots)
	defer conn.Close()
	if e != "" {
		t.Fatalf("a worker of %d cores refused: %s", sched.MaxSlots, e)
	}
	if err := conn.Send(&protocol.Message{Type: protocol.TRequestData, Worker: "widest"}); err != nil {
		t.Fatal(err)
	}
	ran := 0
	for ran < 4 {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatalf("after %d tasks: %v", ran, err)
		}
		if msg.Type != protocol.TExecute {
			continue
		}
		ran++
		res := protocol.TaskResult{GroupIndex: msg.GroupIndex, Worker: "widest", OK: true}
		if err := conn.Send(&protocol.Message{Type: protocol.TTaskStatus, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the run never finished")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("running 4 groups on one worker allocated %d MiB", grew>>20)
	}
}

// A live worker's stale statuses are dropped: an OK repeated, and one for a
// group it was never sent. Each group is reported and counted once, and the
// worker's window of one is not released twice: nothing more is sent to it
// while a group it was sent is unreported.
func TestStaleStatusFromLiveWorker(t *testing.T) {
	strat := strategy.RealTimeRemote
	strat.Prefetch = 1
	m, tr, cancel := startMaster(t, MasterConfig{}, strat, 1) // four groups
	defer cancel()
	conn, err := tr.Dial("m")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The reader passes on a copy: a received message is the transport's
	// until the next Recv.
	msgs := make(chan protocol.Message, 64)
	go func() {
		defer close(msgs)
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			msgs <- *msg
		}
	}()
	send := func(msg *protocol.Message) {
		t.Helper()
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	// execute returns the group of the next EXECUTE, then waits a while to
	// see that nothing else follows it.
	execute := func() int {
		t.Helper()
		gi := -1
		for gi < 0 {
			select {
			case msg, ok := <-msgs:
				switch {
				case !ok:
					t.Fatal("the master closed the connection")
				case msg.Type == protocol.TExecute:
					gi = msg.GroupIndex
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no EXECUTE")
			}
		}
		select {
		case msg := <-msgs:
			t.Fatalf("the master sent %s after group %d's EXECUTE, before its status", msg.Type, gi)
		case <-time.After(50 * time.Millisecond):
		}
		return gi
	}
	ok := func(gi int) {
		send(&protocol.Message{Type: protocol.TTaskStatus, Result: protocol.TaskResult{GroupIndex: gi, Worker: "w0", OK: true}})
	}
	send(&protocol.Message{Type: protocol.TRegister, Worker: "w0", Cores: 1})
	send(&protocol.Message{Type: protocol.TRequestData})
	first := execute()
	ok(first)
	ok(first)
	ok(3) // not sent yet
	for range 3 {
		ok(execute())
	}
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the run never finished")
	}
	r := m.Report()
	reported := make([]int, 4)
	for _, res := range r.Results {
		reported[res.GroupIndex]++
	}
	if r.Succeeded != 4 || !slices.Equal(reported, []int{1, 1, 1, 1}) {
		t.Fatalf("%d succeeded, reports per group %v; want each of the 4 once", r.Succeeded, reported)
	}
}

// The controller's SHUTDOWN closes the master's listener; over TCP, Serve
// must report that as a clean exit, as it does over the in-memory transport.
func TestServeOverTCPReturnsNilAfterShutdown(t *testing.T) {
	tr := transport.NewTCP()
	m, err := NewMaster(MasterConfig{Source: catalog.NewMemSource(), Transport: tr, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // only for a failed test: a cancelled ctx would excuse any Serve error
	served := make(chan error, 1)
	go func() { served <- m.Serve(ctx) }()
	<-m.serving
	conn, err := tr.Dial(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, msg := range []*protocol.Message{
		{Type: protocol.TStartMaster, Strategy: strategy.RealTimeRemote, Seq: 1},
		{Type: protocol.TShutdown, Seq: 2},
	} {
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
		if ack, err := conn.Recv(); err != nil || ack.Error != "" {
			t.Fatalf("ack %d: %+v, %v", i, ack, err)
		}
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after SHUTDOWN = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after SHUTDOWN")
	}
}

func TestMasterControlProtocol(t *testing.T) {
	m, tr, cancel := startMaster(t, MasterConfig{}, strategy.RealTimeRemote, 0)
	defer cancel()
	conn, err := tr.Dial("m")
	if err != nil {
		t.Fatal(err)
	}
	send := func(msg *protocol.Message) *protocol.Message {
		t.Helper()
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
		ack, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return ack
	}
	if ack := send(&protocol.Message{Type: protocol.TStartMaster, Strategy: strategy.RealTimeRemote, Seq: 1}); ack.Error != "" {
		t.Fatalf("START_MASTER rejected: %s", ack.Error)
	}
	// Removing an unknown worker errors but keeps the channel alive.
	if ack := send(&protocol.Message{Type: protocol.TRemoveWorker, Worker: "ghost", Seq: 2}); ack.Error == "" {
		t.Fatal("ghost removal accepted")
	}
	// Unexpected control messages are acked with an error.
	if ack := send(&protocol.Message{Type: protocol.TRequestData, Seq: 3}); !strings.Contains(ack.Error, "unexpected") {
		t.Fatalf("unexpected message ack = %+v", ack)
	}
	// PARTITION_TYPE works before start.
	if ack := send(&protocol.Message{Type: protocol.TPartitionType, Strategy: strategy.PrePartitionedRemote, Seq: 4}); ack.Error != "" {
		t.Fatalf("PARTITION_TYPE rejected: %s", ack.Error)
	}
	// SHUTDOWN closes the listener.
	if ack := send(&protocol.Message{Type: protocol.TShutdown, Seq: 5}); ack.Error != "" {
		t.Fatalf("SHUTDOWN rejected: %s", ack.Error)
	}
	if _, err := tr.Dial("m"); err == nil {
		t.Fatal("listener still up after SHUTDOWN")
	}
	_ = m
}

func TestMasterFatalOnBadGrouping(t *testing.T) {
	// A grouping that cannot apply (pairwise on an odd file count) must
	// fail the run, not hang it.
	src := catalog.NewMemSource()
	for i := 0; i < 3; i++ {
		src.Put(fmt.Sprintf("f%d", i), []byte("x"))
	}
	strat := strategy.RealTimeRemote
	strat.Grouping = "pairwise-adjacent"
	m, tr, cancel := startMaster(t, MasterConfig{Source: src}, strat, 1)
	defer cancel()
	w, err := NewWorker(WorkerConfig{
		Name: "w0", Cores: 1, Store: NewMemStore(),
		Program:   FuncProgram(func(context.Context, Task) (string, error) { return "", nil }),
		Transport: tr, MasterAddr: "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run(context.Background())
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("master hung on invalid grouping")
	}
	r := m.Report()
	if len(r.WorkerErrors) == 0 {
		t.Fatalf("no error surfaced: %+v", r)
	}
}

func TestMasterReportBeforeDone(t *testing.T) {
	m, _, cancel := startMaster(t, MasterConfig{}, strategy.RealTimeRemote, 2)
	defer cancel()
	r := m.Report()
	if r.Groups != 0 || r.MakespanSec != 0 {
		t.Fatalf("pre-run report = %+v", r)
	}
}

func TestOneToAllPivotTransferredOnce(t *testing.T) {
	// one-to-all pairs f0 with every other file; f0 must cross the wire to
	// each worker at most once (replica dedup).
	src := catalog.NewMemSource()
	src.Put("f0", []byte(strings.Repeat("p", 1000)))
	for i := 1; i <= 6; i++ {
		src.Put(fmt.Sprintf("f%d", i), []byte(strings.Repeat("x", 10)))
	}
	strat := strategy.RealTimeRemote
	strat.Grouping = "one-to-all"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	ctl, err := NewController(ControllerConfig{
		Strategy:        strat,
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: src},
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		if len(task.Inputs) != 2 || task.Inputs[0] != "f0" {
			return "", fmt.Errorf("unexpected inputs %v", task.Inputs)
		}
		return "ok", nil
	})
	for i := 0; i < 2; i++ {
		if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: fmt.Sprintf("w%d", i), Cores: 1, Program: prog}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 6 {
		t.Fatalf("report = %+v", r)
	}
	// Upper bound: pivot once per worker (2×1000) + six smalls (60).
	if r.BytesMoved > 2*1000+6*10 {
		t.Fatalf("BytesMoved = %d; pivot re-sent", r.BytesMoved)
	}
}

// serveMaster serves a master with no preset template or worker count — a
// daemon, configured only by the controller that connects to it — over tr
// at "m", until the test ends.
func serveMaster(t *testing.T, tr transport.Transport, src catalog.Source) *Master {
	t.Helper()
	m, err := NewMaster(MasterConfig{Source: src, Transport: tr, Addr: "m"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		m.Serve(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	return m
}

// A worker that registers with a daemon master before the controller's
// START_MASTER waits for it: its ACK carries the controller's template, and
// the worker runs the job with it. The ACK comes before FORK_REMOTE_WORKERS,
// so it tells the worker to expect no number of files.
func TestWorkerRegisteredBeforeStartGetsControllerTemplate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	log := &wireLog{Transport: transport.NewMem(nil)}
	serveMaster(t, log, sourceWithFiles(4, 10))
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Name: "w0", Cores: 1, Store: store, Transport: log, MasterAddr: "m", DialRetry: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()
	// Wait until the master has read the registration.
	for registered := false; !registered; time.Sleep(time.Millisecond) {
		log.mu.Lock()
		for _, c := range log.conns {
			registered = registered || c.master && c.worker == "w0"
		}
		log.mu.Unlock()
		if ctx.Err() != nil {
			t.Fatal("the master never read the registration")
		}
	}
	template := []string{"cat", "$inp1"}
	ctl, err := NewController(ControllerConfig{
		Strategy: strategy.RealTimeRemote, Template: template, Transport: log, MasterAddr: "m", Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded != 4 || r.Failed != 0 {
		t.Fatalf("report = %+v", r)
	}
	if err := ctl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, c := range log.conns {
		if c.master && c.worker == "w0" {
			if ack := c.sent[0]; ack.Type != protocol.TAck || !slices.Equal(ack.Template, template) || ack.ExpectFiles != 0 {
				t.Fatalf("the master's first frame to w0 = %s with template %q expecting %d files, want an ACK with %q expecting 0", ack.Type, ack.Template, ack.ExpectFiles, template)
			}
		}
	}
}

// A controller of a separately served master reports the strategy it
// switched the master to before the run, not the one it started with.
func TestRemoteMasterReportNamesUpdatedStrategy(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	serveMaster(t, tr, sourceWithFiles(6, 10))
	ctl, err := NewController(ControllerConfig{
		Strategy: strategy.RealTimeRemote, Transport: tr, MasterAddr: "m", Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ctl.UpdateStrategy(strategy.PrePartitionedRemote); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: fmt.Sprintf("w%d", i), Cores: 1, Program: echoProgram()}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 6 {
		t.Fatalf("report = %+v", r)
	}
	if want := strategy.PrePartitionedRemote.String(); r.Strategy != want {
		t.Fatalf("report names %q, want %q", r.Strategy, want)
	}
}

// Report is safe to call while a job runs over TCP: polled in a loop for the
// whole run (run it under -race), every read is consistent.
func TestReportPolledDuringRun(t *testing.T) {
	const files = 200
	var wg sync.WaitGroup
	reads := 0
	r := (&testHarness{
		tr: transport.NewTCP(), addr: "127.0.0.1:0", strategy: strategy.RealTimeRemote, source: sourceWithFiles(files, 100),
		workers: 2, cores: 2, program: echoProgram(),
		running: func(ctl *Controller) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-ctl.master.Done():
						return
					default:
					}
					rep := ctl.master.Report()
					if rep.Succeeded+rep.Failed > rep.Groups || len(rep.Results) != rep.Succeeded+rep.Failed {
						t.Errorf("inconsistent report: %d succeeded, %d failed, %d results, %d groups",
							rep.Succeeded, rep.Failed, len(rep.Results), rep.Groups)
						return
					}
					reads++
				}
			}()
		},
	}).run(t)
	wg.Wait()
	if r.Succeeded != files {
		t.Fatalf("report = %+v", r)
	}
	if reads == 0 {
		t.Fatal("no report was read during the run")
	}
}

// TestClaimGroupPastSixtyFourFiles claims a group too wide for an item's
// send mask: the files the worker was not sent are listed in the item, in
// group order, and claiming the group again lists none.
func TestClaimGroupPastSixtyFourFiles(t *testing.T) {
	cat := catalog.New()
	for i := 0; i < 70; i++ {
		cat.MustAdd(catalog.FileMeta{Name: fmt.Sprintf("f%02d", i), Size: int64(i)})
	}
	var ids []int32
	for i := 69; i >= 0; i-- {
		ids = append(ids, int32(i))
	}
	m := &Master{catalogue: cat, led: sched.NewLedger[struct{}](false, 0)}
	m.led.Plan(ids, []int32{0, 70})
	w := &masterWorker{}
	w.Held.Add(3)
	var it outItem
	m.claimGroup(w, &it, 0)
	var want []protocol.FileInfo
	for i := 69; i >= 0; i-- {
		if i != 3 {
			want = append(want, protocol.FileInfo{Name: fmt.Sprintf("f%02d", i), Size: int64(i)})
		}
	}
	if it.send != 0 || !slices.Equal(it.files, want) {
		t.Fatalf("send mask %x, files %v; want files %v", it.send, it.files, want)
	}
	if w.Held.Len() != 70 {
		t.Fatalf("%d files claimed, want 70", w.Held.Len())
	}
	var again outItem
	if m.claimGroup(w, &again, 0); again.send != 0 || len(again.files) != 0 {
		t.Fatalf("second claim: send mask %x, files %v", again.send, again.files)
	}
}
