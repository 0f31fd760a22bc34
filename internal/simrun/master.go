// Control-plane fault tolerance (master.go). Every other injector in this
// repo assumes an immortal master; this file removes that assumption. A
// MasterConfig gives the runner a crash schedule (fault.MasterFaultInjector)
// and a recovery mode:
//
//   - Journaled: every control-plane mutation (file registration, replica
//     add/remove, node drop, evacuation, loss declaration, task completion)
//     appends a typed record to a catalog.Journal, periodically compacted
//     into a catalog.Snapshot. On restart the master pays a per-record
//     replay cost, reconstructs its state via catalog.Replay, and asserts
//     the replayed state is byte-identical to the view the journal was
//     mirroring — deterministic recovery, checked on every restart.
//   - Amnesia (Journal=false): the restarted master has no persistent state.
//     It rebuilds what it can from the job spec and its own storage (it
//     knows which files it evacuated — its disk is inspectable) but forgets
//     the replica map and the completion ledger: completed tasks are
//     re-executed, and evacuated files whose holders it can no longer name
//     are declared lost on the next repair scan.
//
// Outage semantics on the virtual clock: the master *process* dies, not the
// master VM — in-flight transfers and computes continue (the data plane
// keeps serving bytes), while everything that needs a control-plane decision
// pauses or queues. Dispatch/admission and repair scans pause, the failure
// detector pauses (heartbeats are ignored, no declarations fire), and
// worker→master messages — task completions, replica landings, death
// reports, elastic joins — queue FIFO and are re-delivered on recovery.
// Reconciliation then re-dispatches only work with no surviving attempt;
// a double completion of an acknowledged task is a panic, not a statistic.
//
// Everything here is gated on cfg.Master == nil: a nil config takes no
// branch that schedules events or consumes randomness, so all existing
// goldens stay byte-identical.
package simrun

import (
	"fmt"
	"sort"

	"frieda/internal/catalog"
	"frieda/internal/fault"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
)

// MasterConfig turns on control-plane fault tolerance.
type MasterConfig struct {
	// Faults, when non-nil, injects seeded crash→outage→restart episodes.
	// Nil journals without ever crashing — the property-test mode that lets
	// every ablation cell check replayed state against the live catalog.
	Faults *fault.MasterFaultOptions
	// Journal selects journaled recovery; false is amnesia (see file
	// comment).
	Journal bool
}

// The recovery cost model and journal compaction.
const (
	// recoveryBaseSec is the fixed restart cost — process start, worker
	// re-registration.
	recoveryBaseSec = 5
	// recoverySecPerRecord prices journal replay: each snapshot entry and
	// journal record adds this much to the recovery window.
	recoverySecPerRecord = 1e-4
	// compactEvery folds the journal into a snapshot once it holds this many
	// records, bounding replay work.
	compactEvery = 4096
)

// masterState is the runner's control-plane fault machinery; nil unless
// cfg.Master is set.
type masterState struct {
	r   *Runner
	inj *fault.MasterFaultInjector

	// down: crash→restart (process gone). recovering: restart→recovered
	// (process up, replaying the journal, not yet serving). Both defer
	// master-side work.
	down       bool
	recovering bool
	// queued holds deferred worker→master messages in arrival order.
	queued []func()

	crashAt   sim.Time
	restartAt sim.Time
	recoverEv sim.EventRef

	// Journal mode: the WAL, its snapshot, and the shadow State every record
	// is applied to as it is journaled. The shadow view is what a replay is
	// byte-compared against.
	journal catalog.Journal
	snap    *catalog.Snapshot
	view    *catalog.State

	// doneTruth is ground truth: tasks that actually went terminal,
	// regardless of what the (possibly amnesiac) master believes. It backs
	// the double-completion assert and the amnesia re-execution accounting.
	doneTruth map[int]bool
	// reQueuedDone marks tasks an amnesiac master re-queued despite their
	// being done: their next terminal outcome restores the belief and counts
	// as re-executed work instead of a new completion.
	reQueuedDone map[int]bool
}

// initMaster builds the master-fault state at Start. In journal mode the
// job spec's file set is registered first — the first thing a real master
// writes down.
func (r *Runner) initMaster() {
	mc := r.cfg.Master
	if mc == nil {
		return
	}
	m := &masterState{r: r, doneTruth: make(map[int]bool)}
	r.mf = m
	if mc.Journal {
		m.view = catalog.NewState()
		for _, f := range uniqueFiles(r.wl.Tasks, allIndices(len(r.wl.Tasks))) {
			m.record(catalog.Record{Op: catalog.OpRegister, File: f.Name, A: uint64(f.Size)})
			if f.Checksum != 0 {
				m.record(catalog.Record{Op: catalog.OpSeedChecksum, File: f.Name, B: f.Checksum})
			}
		}
	}
	if mc.Faults != nil {
		m.inj = fault.NewMasterFaultInjector(r.eng, *mc.Faults, m.onCrash, m.onRestart)
	}
}

// deferring reports whether master-side work must queue: the process is
// down, or up but still replaying. Nil-safe: false for an immortal master.
func (m *masterState) deferring() bool { return m != nil && (m.down || m.recovering) }

// enqueue defers one master-side closure until recovery.
func (m *masterState) enqueue(fn func()) { m.queued = append(m.queued, fn) }

func (m *masterState) journaling() bool { return m.r.cfg.Master.Journal }

// record journals one mutation: apply to the shadow view, append to the
// WAL, compact when the journal is long enough. Apply errors are programming
// errors — the master journals only mutations it just performed.
func (m *masterState) record(rec catalog.Record) {
	if err := m.view.Apply(rec); err != nil {
		panic(fmt.Sprintf("simrun: journal apply %s: %v", rec.Op, err))
	}
	m.journal.Append(rec)
	if m.journal.Len() >= compactEvery {
		snap, err := catalog.Compact(m.snap, &m.journal)
		if err != nil {
			panic(fmt.Sprintf("simrun: journal compaction: %v", err))
		}
		m.snap = snap
	}
}

// stop disarms the injector and any pending recovery event so an idle
// engine can drain after the run finishes.
func (m *masterState) stop() {
	if m.inj != nil {
		m.inj.Stop()
	}
	m.recoverEv.Cancel()
}

// taskTerminal records ground truth for a terminal task and, in journal
// mode, the ledger record. A second terminal outcome for the same task is
// the invariant violation recovery exists to prevent.
func (m *masterState) taskTerminal(task int, ok bool) {
	if m.doneTruth[task] {
		panic(fmt.Sprintf("simrun: double completion of task %d — recovery re-ran acknowledged work", task))
	}
	m.doneTruth[task] = true
	if m.journaling() {
		b := uint64(0)
		if ok {
			b = 1
		}
		m.record(catalog.Record{Op: catalog.OpTaskDone, A: uint64(task), B: b})
	}
}

// --- journaled replica-map wrappers -------------------------------------
//
// Every mutation of the master's replica view routes through these so the
// shadow State (and so the journal) tracks r.replicas exactly. With
// cfg.Master nil they reduce to the bare catalog calls.

// mfRecord journals a mutation when a journaling master is configured.
func (r *Runner) mfRecord(rec catalog.Record) {
	if m := r.mf; m != nil && m.journaling() {
		m.record(rec)
	}
}

func (r *Runner) repAdd(file, node string) {
	r.replicas.Add(file, node)
	r.mfRecord(catalog.Record{Op: catalog.OpReplicaAdd, File: file, Node: node})
}

func (r *Runner) repRemove(file, node string) {
	r.replicas.Remove(file, node)
	r.mfRecord(catalog.Record{Op: catalog.OpReplicaRemove, File: file, Node: node})
}

func (r *Runner) repDropNode(node string) []string {
	lost := r.replicas.DropNode(node)
	r.mfRecord(catalog.Record{Op: catalog.OpDropNode, Node: node})
	return lost
}

// --- the landing note ----------------------------------------------------

// noteStaged records that a payload landed: node now holds file, and the
// master makes its evacuation decision (markStaged, a no-op for the common
// dataset and without durability). The landing itself is physical — the
// bytes are on disk and the chain continues — but the note is the master's:
// during an outage the worker's report queues and the map updates at
// recovery.
func (r *Runner) noteStaged(file, node string) {
	if r.mf.deferring() {
		r.mf.enqueue(func() {
			r.repAdd(file, node)
			r.markStaged(file)
		})
		return
	}
	r.repAdd(file, node)
	r.markStaged(file)
}

// --- crash / restart / recovery -----------------------------------------

func (m *masterState) onCrash() {
	r := m.r
	if r.finished {
		return
	}
	if m.recovering {
		// Re-crashed mid-replay: the partial replay is wasted time.
		m.recovering = false
		m.recoverEv.Cancel()
		r.res.RecoveryReplaySec += float64(r.eng.Now() - m.restartAt)
	}
	m.down = true
	m.crashAt = r.eng.Now()
	r.res.MasterOutages++
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant("master", "fault", "master-crashed", nil)
	}
	if r.detector != nil {
		r.detector.Pause()
	}
}

func (m *masterState) onRestart() {
	r := m.r
	if r.finished || !m.down {
		return
	}
	m.down = false
	m.recovering = true
	m.restartAt = r.eng.Now()
	r.res.MasterDownSec += float64(r.eng.Now() - m.crashAt)
	cost := float64(recoveryBaseSec)
	if m.journaling() {
		cost += recoverySecPerRecord * float64(m.replayLen())
	}
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant("master", "fault", "master-restarted", obs.Args{
			"queued": len(m.queued), "replay_sec": cost,
		})
	}
	m.recoverEv = r.eng.Schedule(sim.Duration(cost), m.recovered)
}

// replayLen is the recovery replay workload: snapshot entries plus journal
// records.
func (m *masterState) replayLen() int {
	n := m.journal.Len()
	if m.snap != nil {
		n += m.snap.Entries()
	}
	return n
}

// recovered completes a restart: replay-and-assert (journal mode) or wipe
// (amnesia), then deliver queued worker messages, reconcile orphaned work,
// resume detection and repair, and kick dispatch back to life.
func (m *masterState) recovered() {
	r := m.r
	if r.finished || m.down {
		return
	}
	m.recovering = false
	r.res.RecoveryReplaySec += float64(r.eng.Now() - m.restartAt)
	if m.journaling() {
		replayed, err := catalog.Replay(m.snap, m.journal.Bytes())
		if err != nil {
			panic(fmt.Sprintf("simrun: recovery replay: %v", err))
		}
		r.res.ReplayedRecords += m.replayLen()
		if got, want := replayed.CanonicalDump(), m.view.CanonicalDump(); got != want {
			panic(fmt.Sprintf("simrun: recovery replay diverged from live state\n--- replayed ---\n%s--- live ---\n%s", got, want))
		}
	} else {
		m.amnesiaWipe()
		m.amnesiaForgetLedger()
	}
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant("master", "fault", "master-recovered", obs.Args{"queued": len(m.queued)})
	}
	if ab := r.cfg.Attrib; ab.Enabled() {
		// The outage and the replay become first-class blame: crash →
		// restart is master-outage, restart → recovered is recovery-replay,
		// and the recovered node is the ambient cause for everything the
		// drain and the rebuilt queue dispatch next.
		cn := ab.NodeAt(m.crashAt, "master-crash")
		ab.Edge(r.anStart, cn, attrib.Unattributed, "")
		rn := ab.NodeAt(m.restartAt, "master-restart")
		ab.Edge(cn, rn, attrib.MasterOutage, "")
		r.anCause = ab.After(rn, attrib.RecoveryReplay, "master-recovered", "")
	}
	// Deliver queued worker messages in arrival order — the workers held
	// them and re-send on reconnect in both recovery modes.
	q := m.queued
	m.queued = nil
	for _, fn := range q {
		fn()
	}
	if r.finished {
		return
	}
	m.reconcile()
	// A rebuilt (or amnesiac) catalog is a fresh derivation base: templates
	// cached before the crash must not survive it.
	r.ctrlInvalidate()
	if r.detector != nil {
		r.detector.Resume()
	}
	if r.repair != nil {
		r.repair.scan()
	}
	r.kickAll()
	r.checkDone()
}

// amnesiaWipe is the state an unjournaled master restarts with: it knows the
// job spec and its own storage (which files it evacuated), but not which
// workers hold copies, which files it declared lost, or which tasks
// finished. Evacuated files are noted as known-with-no-holder so the repair
// scan confronts them — with no nameable source they get declared lost,
// the honest price of losing the replica map. The fresh map has no
// under-replication index yet; the recovery rescan builds it, once, over
// the noted files.
func (m *masterState) amnesiaWipe() {
	r := m.r
	r.replicas = catalog.NewReplicas()
	if r.evacuated != nil {
		files := make([]string, 0, len(r.evacuated))
		for f := range r.evacuated {
			if !r.lostFiles[f] {
				files = append(files, f)
			}
		}
		sort.Strings(files)
		for _, f := range files {
			r.replicas.Note(f)
		}
	}
}

// amnesiaForgetLedger drops the completion ledger the way the wipe drops
// the replica map: every task that went terminal before the crash becomes,
// in the master's belief, never-run. It runs before the queued worker
// messages drain so a completion arriving during the outage cannot finish
// the run on counts the master no longer believes. (Tasks completing during
// the outage are not forgotten: their reports are held by the workers and
// re-delivered after restart.)
func (m *masterState) amnesiaForgetLedger() {
	r := m.r
	ids := make([]int, 0, len(m.doneTruth))
	for gi := range m.doneTruth {
		if !m.reQueuedDone[gi] { // earlier episode's re-queue: belief already adjusted
			ids = append(ids, gi)
		}
	}
	sort.Ints(ids)
	if len(ids) > 0 && m.reQueuedDone == nil {
		m.reQueuedDone = make(map[int]bool)
	}
	for _, gi := range ids {
		m.reQueuedDone[gi] = true
		r.terminal--
		r.res.OrphansReconciled++
	}
}

// reconcile rebuilds the dispatch queue from what survives: a task is
// pending unless the master's ledger has it terminal or a live worker holds
// an in-flight attempt for it. Worker backlogs are master memory and did not
// survive the process; their tasks fold into the shared queue. In amnesia
// the forgotten completions (amnesiaForgetLedger) come back as pending —
// re-execution the journal would have prevented.
func (m *masterState) reconcile() {
	r := m.r
	inflight := make(map[int]bool)
	for _, w := range r.workers {
		if w.dead {
			continue
		}
		for gi := range w.inflight {
			inflight[gi] = true
		}
	}
	oldQueue := make(map[int]bool, len(r.queue))
	for _, gi := range r.queue {
		oldQueue[gi] = true
	}
	for _, w := range r.workers {
		w.backlog = nil
	}
	pending := make([]int, 0, len(r.queue))
	for gi := range r.wl.Tasks {
		if inflight[gi] {
			continue
		}
		if m.doneTruth[gi] {
			if m.reQueuedDone[gi] {
				// Forgotten by the wipe (or a still-unsettled re-queue from
				// an earlier episode): dispatch it again.
				pending = append(pending, gi)
			}
			continue
		}
		pending = append(pending, gi)
		if !oldQueue[gi] {
			r.res.OrphansReconciled++
		}
	}
	r.queue = pending
}

// JournalCheck replays the snapshot+journal and byte-compares the
// reconstructed control-plane state against both the journal's shadow view
// and the live replica map. The ablation property test calls it after every
// cell; a masterfail run asserts the same thing on every recovery.
func (r *Runner) JournalCheck() error {
	m := r.mf
	if m == nil || !m.journaling() {
		return fmt.Errorf("simrun: journal not enabled (set Config.Master.Journal)")
	}
	replayed, err := catalog.Replay(m.snap, m.journal.Bytes())
	if err != nil {
		return err
	}
	if got, want := replayed.CanonicalDump(), m.view.CanonicalDump(); got != want {
		return fmt.Errorf("replayed state diverged from journaled view\n--- replayed ---\n%s--- view ---\n%s", got, want)
	}
	if got, want := catalog.DumpReplicas(replayed.Replicas()), catalog.DumpReplicas(r.replicas); got != want {
		return fmt.Errorf("replayed replica map diverged from live map\n--- replayed ---\n%s--- live ---\n%s", got, want)
	}
	return nil
}

// JournalStats reports the journal's current record count, snapshot entry
// count and encoded sizes (journal mode only; zeros otherwise).
func (r *Runner) JournalStats() (records, snapEntries, bytes int) {
	m := r.mf
	if m == nil || !m.journaling() {
		return 0, 0, 0
	}
	records, bytes = m.journal.Len(), m.journal.Size()
	if m.snap != nil {
		snapEntries = m.snap.Entries()
		bytes += m.snap.Size()
	}
	return records, snapEntries, bytes
}
