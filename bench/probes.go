package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/ctrlplane"
	"frieda/internal/experiments"
	"frieda/internal/exprun"
	"frieda/internal/netsim"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/protocol"
	"frieda/internal/sim"
	"frieda/internal/simrun"
	"frieda/internal/storage"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// A probe is a loop over a layer's public functions with inputs shaped like
// the workload. A workload runs only the probes of the layers it uses.

// loops shrinks a probe's repeat count with -scale, for the smoke test.
func (o options) loops(n int) int {
	if n = int(float64(n) * o.scale); n < 1 {
		return 1
	}
	return n
}

// perOp is the median over five rounds of the time one call of fn takes
// when called n times in a row, in nanoseconds.
func perOp(n int, fn func()) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds = append(rounds, float64(time.Since(start))/float64(n))
	}
	return median(rounds)
}

// --- rt_* ---

// layers summarises the traced jobs, runs one extra job on the batched
// control plane, and probes transport, protocol and planning.
func (w *rtWorkload) layers(ctx context.Context, _ time.Duration) (values, error) {
	v := w.trace.values()
	v["core.payload_mb_per_s"] = median(w.payloadRates)

	batched := w.job(ctx, -1, false, true)
	if batched.bad != nil {
		return nil, fmt.Errorf("batched job: %w", batched.bad)
	}
	if batched.wall > 0 {
		v["core.batched_tasks_per_s"] = float64(batched.ops) / batched.wall.Seconds()
	}

	if w.spec.tcp {
		rtt, stream, err := probeTransport(w.opts, transport.NewTCP(), "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("tcp probe: %w", err)
		}
		v["transport.tcp_rtt_us"] = rtt / 1e3
		v["transport.tcp_stream_mb_per_s"] = stream
		p, err := probeProtocol(w.opts)
		if err != nil {
			return nil, fmt.Errorf("protocol probe: %w", err)
		}
		v.merge(p)
	} else {
		rtt, _, err := probeTransport(w.opts, transport.NewMem(nil), "probe")
		if err != nil {
			return nil, fmt.Errorf("mem probe: %w", err)
		}
		v["transport.mem_rtt_ns"] = rtt
	}
	p, err := w.probePlanning()
	if err != nil {
		return nil, fmt.Errorf("planning probe: %w", err)
	}
	v.merge(p)

	// How much of the workers' wall time the layer numbers account for.
	// Receive wait overlaps program time, so the share can pass 1.
	if wall := v["core.wait_s"] * float64(w.spec.workers); wall > 0 {
		covered := v["core.program_busy_s"] + v["transport.send_busy_s"] + v["transport.recv_wait_s"] +
			v["core.store_write_s"] + v["core.store_read_s"] + v["catalog.source_read_s"]
		fmt.Fprintf(w.opts.out, "# layers cover %.0f%% of worker-side wall (%d workers × core.wait_s)\n", 100*covered/wall, w.spec.workers)
	}
	if err := writeSpans(w.opts, w.trace.spans); err != nil {
		return nil, err
	}
	return v, nil
}

// writeSpans prints each span name's self time and, with -out, writes the
// Chrome trace.
func writeSpans(opts options, spans *spanLog) error {
	self := spans.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(opts.out, "# self time %-24s %.3fs\n", name, self[name].Seconds())
	}
	if opts.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return err
	}
	return spans.writeChrome(filepath.Join(opts.outDir, "trace-"+opts.workload+".json"))
}

// probeTransport ping-pongs TRequestData and streams 256 KiB TFileData
// chunks over one connection of tr. It returns nanoseconds per round trip
// and the streaming rate in MB/s; listener, connections and the echo
// goroutine are gone when it returns.
func probeTransport(opts options, tr transport.Transport, addr string) (rttNs, streamMBs float64, err error) {
	ln, err := tr.Listen(addr)
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // echo: answers every request and every last chunk
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if m.Type == protocol.TRequestData || m.Last {
				if c.Send(&protocol.Message{Type: protocol.TAck}) != nil {
					return
				}
			}
		}
	}()
	defer func() {
		ln.Close() // unblocks an Accept that never got its dial
		wg.Wait()
	}()
	c, err := tr.Dial(ln.Addr())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()

	pings := opts.loops(2000)
	start := time.Now()
	for i := 0; i < pings; i++ {
		if err := c.Send(&protocol.Message{Type: protocol.TRequestData, Worker: "probe"}); err != nil {
			return 0, 0, err
		}
		if _, err := c.Recv(); err != nil {
			return 0, 0, err
		}
	}
	rttNs = float64(time.Since(start)) / float64(pings)

	const chunkSize = 256 << 10
	chunks := opts.loops(128)
	data := make([]byte, chunkSize)
	start = time.Now()
	for i := 0; i < chunks; i++ {
		m := &protocol.Message{Type: protocol.TFileData, FileName: "probe", Offset: int64(i * chunkSize), Data: data, Last: i == chunks-1}
		if err := c.Send(m); err != nil {
			return 0, 0, err
		}
	}
	if _, err := c.Recv(); err != nil {
		return 0, 0, err
	}
	streamMBs = float64(chunks*chunkSize) / 1e6 / time.Since(start).Seconds()
	return rttNs, streamMBs, nil
}

// probeProtocol encodes and decodes control messages (TExecute,
// TTaskStatus) and 256 KiB data messages through a Codec over a buffer.
func probeProtocol(opts options) (values, error) {
	var buf bytes.Buffer
	codec := protocol.NewCodec(&buf)
	ctrl := []*protocol.Message{
		{Type: protocol.TExecute, GroupIndex: 7, Files: []protocol.FileInfo{{Name: "s1-f000007.dat", Size: 1 << 10}}},
		{Type: protocol.TTaskStatus, Result: protocol.TaskResult{GroupIndex: 7, Worker: "w0", OK: true, DurationSec: 0.001}},
	}
	const chunkSize = 256 << 10
	data := &protocol.Message{Type: protocol.TFileData, FileName: "s1-f000007.dat", Data: make([]byte, chunkSize), Last: true}
	// gob sends each type's description once; get that out of the way.
	for _, m := range append(ctrl, data) {
		if err := codec.Send(m); err != nil {
			return nil, err
		}
		if _, err := codec.Recv(); err != nil {
			return nil, err
		}
	}

	var failed error
	round := func(n int, msgs []*protocol.Message) (encNs, decNs, wire float64) {
		buf.Reset()
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := codec.Send(msgs[i%len(msgs)]); err != nil {
				failed = err
			}
		}
		encNs = float64(time.Since(start)) / float64(n)
		wire = float64(buf.Len()) / float64(n)
		start = time.Now()
		for i := 0; i < n; i++ {
			if _, err := codec.Recv(); err != nil {
				failed = err
			}
		}
		decNs = float64(time.Since(start)) / float64(n)
		return
	}

	var encCtrl, decCtrl, encData, decData []float64
	var wireData float64
	var allocData uint64
	ctrlMsgs, dataMsgs := opts.loops(2000), opts.loops(32)
	buf.Grow(dataMsgs * (chunkSize + 1024))
	for r := 0; r < 5; r++ {
		e, d, _ := round(ctrlMsgs, ctrl)
		encCtrl, decCtrl = append(encCtrl, e), append(decCtrl, d)
		_, alloc, _ := timed(func() {
			e, d, wireData = round(dataMsgs, []*protocol.Message{data})
		})
		encData, decData = append(encData, e), append(decData, d)
		allocData = alloc
	}
	if failed != nil {
		return nil, failed
	}
	const kb = chunkSize / 1024
	return values{
		"protocol.encode_ctrl_ns":          median(encCtrl),
		"protocol.decode_ctrl_ns":          median(decCtrl),
		"protocol.encode_data_ns_per_kb":   median(encData) / kb,
		"protocol.decode_data_ns_per_kb":   median(decData) / kb,
		"protocol.data_alloc_bytes_per_kb": float64(allocData) / float64(dataMsgs) / kb,
		"protocol.wire_overhead_frac":      (wireData - chunkSize) / chunkSize,
	}, nil
}

// probePlanning times the partition generator and the assigner over the
// workload's catalogue, and the decision cache's hit and refill paths.
func (w *rtWorkload) probePlanning() (values, error) {
	cat, err := w.src.Catalog()
	if err != nil {
		return nil, err
	}
	gen, err := w.spec.strat.Generator()
	if err != nil {
		return nil, err
	}
	groups, err := gen.Generate(cat)
	if err != nil {
		return nil, err
	}
	assigner, err := strategy.AssignerByName(w.spec.strat.Assigner)
	if err != nil {
		return nil, err
	}
	n := float64(len(groups))
	v := values{
		"partition.generate_ns_per_group": perOp(1, func() { _, err = gen.Generate(cat) }) / n,
		"strategy.assign_ns_per_group":    perOp(1, func() { _, err = assigner.Assign(groups, w.spec.workers) }) / n,
	}
	if err != nil {
		return nil, err
	}
	cache := ctrlplane.NewCache()
	key := ctrlplane.Key{Worker: "w0", Class: "c2d-scan"}
	cache.Install(key, ctrlplane.Decision{PickHead: true})
	hits := 0
	v["ctrlplane.lookup_hit_ns"] = perOp(w.opts.loops(200_000), func() {
		if _, ok := cache.Lookup(key); ok {
			hits++
		}
	})
	v["ctrlplane.invalidate_install_ns"] = perOp(w.opts.loops(200_000), func() {
		cache.Invalidate()
		cache.Install(key, ctrlplane.Decision{PickHead: true})
	})
	if hits == 0 {
		return nil, fmt.Errorf("decision cache never hit")
	}
	return v, nil
}

// --- sim_* ---

// layers summarises the traced sweeps, builds one cell of the workload's
// kind by hand, probes the simulator's layers and runs two extra sweeps:
// one at pool width nproc, one with the obs tracer and metrics attached.
func (w *simWorkload) layers(_ context.Context, untraced time.Duration) (values, error) {
	wall := median(w.tracedWalls)
	v := values{
		"sim.events":                 float64(w.events),
		"netsim.flows":               float64(w.flows),
		"experiments.cells":          float64(w.cells),
		"experiments.cell_s_p50":     median(w.cellWalls),
		"experiments.cell_s_max":     quantile(w.cellWalls, 1),
		"simrun.virtual_makespan_s":  w.makespan,
		"experiments.paper_err_frac": w.perr,
	}
	if w.events > 0 {
		v["sim.host_us_per_event"] = wall * 1e6 / float64(w.events)
	}
	if w.flows > 0 {
		v["netsim.host_us_per_flow"] = wall * 1e6 / float64(w.flows)
	}

	cell, err := w.probeCell()
	if err != nil {
		return nil, fmt.Errorf("cell probe: %w", err)
	}
	v.merge(cell)
	v.merge(w.probeEngine())
	net, err := probeNetsim(w.opts)
	if err != nil {
		return nil, fmt.Errorf("netsim probe: %w", err)
	}
	v.merge(net)
	cl, err := w.probeCloud()
	if err != nil {
		return nil, fmt.Errorf("cloud probe: %w", err)
	}
	v.merge(cl)
	if w.name == "sim_durability" {
		v.merge(w.probeCatalog())
	}
	v.merge(probePool(w.opts))

	// Extra sweeps. They skip the iteration bookkeeping: attached observers
	// add sampling events and a wider pool reorders the hook calls, but
	// each sweep's own output check still applies.
	extra := func() (time.Duration, error) {
		w.marks = w.marks[:0]
		start := time.Now()
		out := w.sweep()
		return time.Since(start), out.bad
	}
	experiments.SetParallelism(runtime.NumCPU())
	wide, err := extra()
	experiments.SetParallelism(1)
	if err != nil {
		return nil, fmt.Errorf("sweep at pool width %d: %w", runtime.NumCPU(), err)
	}
	v["exprun.parallel_speedup"] = untraced.Seconds() / wide.Seconds()

	// The obs sweep is skipped on sim_scale: metrics gauges that walk all
	// 65,536 workers at every sample make that one sweep take 12 s.
	if w.name != "sim_scale" {
		w.attach = func(label string, cluster *cloud.Cluster, cfg *simrun.Config) {
			tr := obs.NewTracer(cluster.Engine(), label)
			cfg.Tracer = tr
			cluster.Network().SetTracer(tr)
			cfg.Metrics = obs.NewMetrics(cluster.Engine(), label, 10) // friedabench's default period
		}
		observed, err := extra()
		w.attach = nil
		if err != nil {
			return nil, fmt.Errorf("sweep with obs attached: %w", err)
		}
		v["obs.trace_overhead_frac"] = (observed.Seconds() - untraced.Seconds()) / untraced.Seconds()
	}
	v["obs.attrib_ns_per_edge"] = probeAttrib(w.opts)

	if err := writeSpans(w.opts, w.spans); err != nil {
		return nil, err
	}
	return v, nil
}

// probeCell builds one cell of the workload's kind through the public
// constructors — testbed, runner, workers, run — timing each phase and
// reading the counts of its simrun.Result: the fig. 6a real-time cell on
// sim_paper, ScaleSweep's cell on sim_scale, a fault-free RF 2 cell on
// sim_durability.
func (w *simWorkload) probeCell() (values, error) {
	cfg := simrun.Config{Strategy: strategy.RealTimeRemote, ModelDiskIO: true}
	wl := experiments.ALSWorkload(w.opts.scale)
	build := func() *experiments.Testbed { return experiments.NewTestbed(4, 1) }
	switch w.name {
	case "sim_scale":
		workers := int(scaleWorkers * w.opts.scale)
		if workers < 64 {
			workers = 64
		}
		cfg.BatchSched = true
		wl = experiments.BLASTWorkload(w.opts.scale, 1)
		build = func() *experiments.Testbed { return experiments.NewTreeTestbed(workers, 1) }
	case "sim_durability":
		cfg.Recover = true
		cfg.Durability = &simrun.DurabilityConfig{
			RF: 2, ScanPeriodSec: 30, MaxConcurrentRepairs: 2, EvacuateSource: true, Verify: true, Seed: 17,
		}
		wl = experiments.BLASTWorkload(durabilityScale*w.opts.scale, 1)
		for ti := range wl.Tasks {
			for fi := range wl.Tasks[ti].Files {
				f := &wl.Tasks[ti].Files[fi]
				f.Checksum = catalog.SeedChecksum(f.Name, 2012)
			}
		}
	}
	start := time.Now()
	tb := build()
	built := time.Now()
	r, err := simrun.NewRunner(tb.Cluster, tb.Source, cfg, wl)
	if err != nil {
		return nil, err
	}
	for _, vm := range tb.Workers {
		r.AddWorker(vm)
	}
	ready := time.Now()
	res, err := r.Run()
	if err != nil {
		return nil, err
	}
	end := time.Now()
	return values{
		"cloud.testbed_build_s":    built.Sub(start).Seconds(),
		"simrun.runner_build_s":    ready.Sub(built).Seconds(),
		"simrun.event_loop_s":      end.Sub(ready).Seconds(),
		"simrun.setup_frac":        ready.Sub(start).Seconds() / end.Sub(start).Seconds(),
		"simrun.tasks_completed":   float64(res.Succeeded),
		"simrun.bytes_moved_gb":    res.BytesMoved / 1e9,
		"simrun.repairs_completed": float64(res.RepairsCompleted),
	}, nil
}

// probeEngine times Schedule+Step and Cancel with about as many events
// pending as the workload keeps: one per worker slot.
func (w *simWorkload) probeEngine() values {
	depth := 16
	if w.name == "sim_scale" {
		depth = int(scaleWorkers * w.opts.scale)
	}
	eng := sim.NewEngine()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < depth; i++ {
		eng.Schedule(sim.Duration(1e9+float64(i)), fn)
	}
	return values{
		"sim.schedule_fire_ns": perOp(w.opts.loops(100_000), func() {
			eng.Schedule(1, fn)
			eng.Step()
		}),
		"sim.cancel_ns": perOp(w.opts.loops(100_000), func() { eng.Schedule(1e6, fn).Cancel() }),
	}
}

// probeNetsim churns flows through a 4-worker flat fabric (eager, dense)
// and through a 1,024-worker DefaultTreeSpec fat-tree (batched, folded),
// and times SetCapacity and FailLink+RestoreLink under four active flows.
func probeNetsim(opts options) (values, error) {
	flatFlows := opts.loops(2000)
	flat := func() float64 {
		eng := sim.NewEngine()
		net := netsim.New(eng)
		src := net.NewHost("src", netsim.Mbps(100), netsim.Mbps(100))
		var dsts []*netsim.Host
		for i := 0; i < 4; i++ {
			dsts = append(dsts, net.NewHost(fmt.Sprintf("w%d", i), netsim.Mbps(100), netsim.Mbps(100)))
		}
		started := 0
		var next func(sim.Time)
		next = func(sim.Time) { // each completion starts the next flow
			if started < flatFlows {
				started++
				net.Transfer(src, dsts[started%4], nil, 1e6, next)
			}
		}
		start := time.Now()
		for i := 0; i < 4; i++ {
			next(0)
		}
		eng.Run()
		return float64(time.Since(start)) / float64(net.FlowsCompleted)
	}

	treeWorkers := opts.loops(1024)
	var treeErr error
	tree := func() float64 {
		eng := sim.NewEngine()
		net := netsim.New(eng)
		net.SetColdAggregation(true)
		net.SetBatched(true)
		topo, err := netsim.NewTree(net, experiments.DefaultTreeSpec())
		if err != nil {
			treeErr = err
			return 0
		}
		master := net.NewHost("master", netsim.Mbps(1000), netsim.Mbps(1000))
		topo.Attach(master)
		paths := make([][]*netsim.Link, treeWorkers)
		for i := range paths {
			h := net.NewHost(fmt.Sprintf("w%d", i), netsim.Mbps(100), netsim.Mbps(100))
			topo.Attach(h)
			paths[i] = topo.Path(master, h)
		}
		start := time.Now()
		for i, path := range paths {
			path := path
			// Starts staggered so arrivals and completions interleave.
			eng.Schedule(sim.Duration(float64(i)*0.08), func() { net.StartFlow(10e6, path, nil) })
		}
		eng.Run()
		return float64(time.Since(start)) / float64(net.FlowsCompleted)
	}

	eng := sim.NewEngine()
	net := netsim.New(eng)
	src := net.NewHost("src", netsim.Mbps(100), netsim.Mbps(100))
	var last *netsim.Host
	for i := 0; i < 4; i++ {
		last = net.NewHost(fmt.Sprintf("w%d", i), netsim.Mbps(100), netsim.Mbps(100))
		net.Transfer(src, last, nil, 1e12, nil)
	}
	eng.RunUntil(eng.Now() + 1)
	mbps := 50.0
	v := values{
		"netsim.flat_flow_us": median([]float64{flat(), flat(), flat()}) / 1e3,
		"netsim.tree_flow_us": median([]float64{tree(), tree(), tree()}) / 1e3,
		"netsim.set_capacity_us": perOp(opts.loops(20_000), func() {
			mbps = 150 - mbps
			net.SetCapacity(src.Up(), netsim.Mbps(mbps))
		}) / 1e3,
		"netsim.fail_restore_us": perOp(opts.loops(20_000), func() {
			net.FailLink(last.Down())
			net.RestoreLink(last.Down())
		}) / 1e3,
	}
	return v, treeErr
}

// probeCloud times Cluster.Provision per VM on the workload's topology and
// a storage volume's write scheduling.
func (w *simWorkload) probeCloud() (values, error) {
	vms, opts := 5, cloud.Options{Seed: 1, InstantBoot: true}
	rounds := w.opts.loops(200)
	if w.name == "sim_scale" {
		spec := experiments.DefaultTreeSpec()
		vms, opts.Topology, rounds = w.opts.loops(4096), &spec, 1
	}
	var failed error
	provision := perOp(rounds, func() {
		eng := sim.NewEngine()
		if _, err := cloud.New(eng, opts).Provision(vms, cloud.C1XLarge); err != nil {
			failed = err
		}
		eng.RunUntil(eng.Now())
	})
	vol := storage.MustVolume("probe", storage.DefaultLocal)
	write := perOp(w.opts.loops(1_000_000), func() {
		if _, err := vol.Write(2000); err != nil {
			failed = err
		}
	})
	return values{
		"cloud.provision_us_per_vm": provision / float64(vms) / 1e3,
		"storage.write_op_us":       write / 1e3,
	}, failed
}

// probeCatalog times the replica map at the size of one durability cell —
// the cell's files over four workers at RF 2, a tenth of them one copy
// short — and a journal append.
func (w *simWorkload) probeCatalog() values {
	files := len(experiments.BLASTWorkload(durabilityScale*w.opts.scale, 1).Tasks)
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("q%06d.fa", i)
	}
	nodes := []string{"vm1", "vm2", "vm3", "vm4"}
	reps := catalog.NewReplicas()
	fill := func() {
		for i, name := range names {
			reps.Add(name, nodes[i%4])
			if i%10 != 0 {
				reps.Add(name, nodes[(i+1)%4])
			}
		}
	}
	fill()
	i := 0
	v := values{}
	v["catalog.replicas_add_ns"] = perOp(w.opts.loops(100_000), func() { i++; reps.Add(names[i%files], nodes[i%4]) })
	held := 0
	v["catalog.replicas_has_ns"] = perOp(w.opts.loops(100_000), func() {
		i++
		if reps.Has(names[i%files], nodes[i%4]) {
			held++
		}
	})
	short := 0
	v["catalog.under_replicated_us"] = perOp(w.opts.loops(200), func() { short += len(reps.UnderReplicated(2)) }) / 1e3
	v["catalog.replicas_drop_node_us"] = perOp(20, func() {
		reps.DropNode(nodes[3])
		fill()
	}) / 1e3
	var journal catalog.Journal
	v["catalog.journal_append_ns"] = perOp(w.opts.loops(100_000), func() {
		i++
		journal.Append(catalog.Record{Op: catalog.OpReplicaAdd, File: names[i%files], Node: nodes[i%4]})
		if journal.Len() >= 1<<16 {
			journal.Reset()
		}
	})
	return v
}

// probePool times the sweep pool's own cost per cell with cells that do
// nothing.
func probePool(opts options) values {
	cells := make([]exprun.Cell[int], opts.loops(1000))
	for i := range cells {
		cells[i] = exprun.Cell[int]{Label: "noop", Run: func() (int, error) { return 0, nil }}
	}
	pool := exprun.New(1)
	return values{
		"exprun.cell_overhead_ns": perOp(1, func() { _, _ = exprun.Run(pool, cells) }) / float64(len(cells)),
	}
}

// probeAttrib times the critical-path solve per edge on a 10,000-node chain.
func probeAttrib(opts options) float64 {
	nodes := opts.loops(10_000)
	rec := attrib.NewRecorder(sim.NewEngine())
	first := rec.NodeAt(0, "run-start")
	prev := first
	for i := 0; i < nodes; i++ {
		n := rec.NodeAt(sim.Time(i+1), "step")
		rec.Edge(prev, n, attrib.Compute, "")
		prev = n
	}
	return perOp(20, func() { rec.Solve(first, prev) }) / float64(nodes)
}
