// Control-plane fault tolerance (DESIGN.md, "Control-plane fault
// tolerance"). A MasterConfig gives the runner a crash schedule
// (fault.MasterFaultOptions.Schedule) and a recovery mode. Journaled: every
// control-plane mutation appends a typed record to a catalog.Journal,
// compacted into snapshots, and a restart pays a per-record replay cost and
// asserts the replayed state byte-identical to the journal's shadow view.
// Amnesia (Journal=false): the restarted master keeps only the job spec and
// its own storage, so it re-executes completed tasks and declares lost the
// evacuated files it can no longer locate. The master *process* dies, not
// its VM: transfers and computes continue, while dispatch, repair scans and
// failure detection pause and worker→master messages are held, in order,
// until recovery reconciles what survived — re-dispatching only work with no
// surviving attempt. A double completion is a panic, not a statistic.
package simrun

import (
	"fmt"

	"frieda/internal/catalog"
	"frieda/internal/fault"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/partition"
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

// masterHook is the control-plane fault plug-in. While the process is down
// or replaying it keeps r.offline set, and the core holds worker→master
// messages in r.held until recovered delivers them.
type masterHook struct {
	nopHook
	r   *Runner
	cfg MasterConfig
	det *detectHook     // nil without Detection
	dur *durabilityHook // nil without Durability
	an  *attribHook
	tr  *obs.Tracer
	inj *sim.Episodes

	// down: crash→restart (process gone). recovering: restart→recovered
	// (process up, replaying the journal, not yet serving).
	down       bool
	recovering bool
	crashAt    sim.Time
	restartAt  sim.Time
	recoverEv  sim.EventRef

	// Journal mode: the WAL, its snapshot, and the shadow State every record
	// is applied to as it is journaled. The shadow view is what a replay is
	// byte-compared against.
	wal  catalog.Journal
	snap *catalog.Snapshot
	view *catalog.State

	// doneTruth is ground truth: tasks that actually went terminal,
	// regardless of what the (possibly amnesiac) master believes. It backs
	// the double-completion assert and the amnesia re-execution accounting.
	doneTruth map[int]bool
}

func newMaster(r *Runner, det *detectHook, dur *durabilityHook, an *attribHook) *masterHook {
	m := &masterHook{r: r, cfg: *r.cfg.Master, det: det, dur: dur, an: an, tr: r.cfg.Tracer,
		doneTruth: make(map[int]bool)}
	if dur != nil {
		dur.mf = m
	}
	return m
}

// mf returns the run's master plug-in, nil for an immortal master.
func (r *Runner) mf() *masterHook {
	for _, h := range r.hooks {
		if m, ok := h.(*masterHook); ok {
			return m
		}
	}
	return nil
}

// start arms the crash schedule. In journal mode the job spec's file set is
// registered first — the first thing a real master writes down.
func (m *masterHook) start() {
	r := m.r
	if m.cfg.Journal {
		m.view = catalog.NewState()
		for f := range partition.Files(tasksAsGroups(r.wl.Tasks), allIndices(len(r.wl.Tasks))) {
			m.journal(catalog.Record{Op: catalog.OpRegister, File: f.Name, A: uint64(f.Size)})
			if f.Checksum != 0 {
				m.journal(catalog.Record{Op: catalog.OpSeedChecksum, File: f.Name, B: f.Checksum})
			}
		}
	}
	if m.cfg.Faults != nil {
		m.inj = m.cfg.Faults.Schedule(r.eng, m.onCrash, m.onRestart)
	}
}

// journal records one control-plane mutation when the master journals:
// apply it to the shadow view, append it to the WAL, compact once the
// journal is long enough. Every change to the master's replica view comes
// through here, so the shadow State tracks r.replicas exactly. Apply errors
// are programming errors — the master journals only mutations it just
// performed. Nil-safe: durability calls it with or without a mortal master.
func (m *masterHook) journal(rec catalog.Record) {
	if m == nil || !m.cfg.Journal {
		return
	}
	if err := m.view.Apply(rec); err != nil {
		panic(fmt.Sprintf("simrun: journal apply %s: %v", rec.Op, err))
	}
	m.wal.Append(rec)
	if m.wal.Len() >= compactEvery {
		snap, err := catalog.Compact(m.snap, &m.wal)
		if err != nil {
			panic(fmt.Sprintf("simrun: journal compaction: %v", err))
		}
		m.snap = snap
	}
}

// journalFile journals a mutation of one file by name, as journal does: the
// journal is an edge where file ids turn back into names, so the name is
// looked up only when the master journals.
func (m *masterHook) journalFile(op catalog.Op, file int32, node string) {
	if m == nil || !m.cfg.Journal {
		return
	}
	m.journal(catalog.Record{Op: op, File: m.r.replicas.FileName(file), Node: node})
}

func (m *masterHook) staged(file int32, w *simWorker) {
	m.journalFile(catalog.OpReplicaAdd, file, w.name)
}

func (m *masterHook) workerGone(w *simWorker, _ []int32) {
	m.journal(catalog.Record{Op: catalog.OpDropNode, Node: w.name})
}

// settle records ground truth for a terminal task and, in journal mode,
// the ledger record. A second terminal outcome for the same task is the
// invariant violation recovery exists to prevent.
func (m *masterHook) settle(c *Completion) {
	if m.doneTruth[c.Task] {
		panic(fmt.Sprintf("simrun: double completion of task %d — recovery re-ran acknowledged work", c.Task))
	}
	m.doneTruth[c.Task] = true
	b := uint64(0)
	if c.OK {
		b = 1
	}
	m.journal(catalog.Record{Op: catalog.OpTaskDone, A: uint64(c.Task), B: b})
}

// finish disarms the injector and any pending recovery event so an idle
// engine can drain. Every journaled run ends with a replay property check:
// the reconstructed state must match both the shadow view and the live
// replica map, whether or not a crash ever fired.
func (m *masterHook) finish() {
	if m.inj != nil {
		m.inj.Stop()
	}
	m.recoverEv.Cancel()
	if m.cfg.Journal {
		if err := m.r.JournalCheck(); err != nil {
			panic(fmt.Sprintf("simrun: %v", err))
		}
	}
}

func (m *masterHook) onCrash() {
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
	m.down, r.offline = true, true
	m.crashAt = r.eng.Now()
	r.res.MasterOutages++
	m.tr.Instant("master", "fault", "master-crashed", nil)
	if m.det != nil {
		m.det.d.Pause()
	}
}

func (m *masterHook) onRestart() {
	r := m.r
	if r.finished || !m.down {
		return
	}
	m.down, m.recovering = false, true
	m.restartAt = r.eng.Now()
	r.res.MasterDownSec += float64(r.eng.Now() - m.crashAt)
	cost := float64(recoveryBaseSec)
	if m.cfg.Journal {
		cost += recoverySecPerRecord * float64(m.replayLen())
	}
	if m.tr.Enabled() {
		m.tr.Instant("master", "fault", "master-restarted", obs.Args{
			"queued": len(r.held), "replay_sec": cost,
		})
	}
	m.recoverEv = r.eng.Schedule(sim.Duration(cost), m.recovered)
}

// replayLen is the recovery replay workload: snapshot entries plus journal
// records.
func (m *masterHook) replayLen() int {
	n := m.wal.Len()
	if m.snap != nil {
		n += m.snap.Entries()
	}
	return n
}

// recovered completes a restart: replay-and-assert (journal mode) or wipe
// (amnesia), then deliver queued worker messages, reconcile orphaned work,
// resume detection and repair, and kick dispatch back to life.
func (m *masterHook) recovered() {
	r := m.r
	if r.finished || m.down {
		return
	}
	m.recovering, r.offline = false, false
	r.res.RecoveryReplaySec += float64(r.eng.Now() - m.restartAt)
	if m.cfg.Journal {
		r.res.ReplayedRecords += m.replayLen()
		if err := r.JournalCheck(); err != nil {
			panic(fmt.Sprintf("simrun: recovery replay: %v", err))
		}
	} else {
		m.amnesiaWipe()
		m.amnesiaForgetLedger()
	}
	if m.tr.Enabled() {
		m.tr.Instant("master", "fault", "master-recovered", obs.Args{"queued": len(r.held)})
	}
	if ab := m.an.ab; ab.Enabled() {
		// The outage and the replay become first-class blame: crash →
		// restart is master-outage, restart → recovered is recovery-replay,
		// and the recovered node is the ambient cause for everything the
		// drain and the rebuilt queue dispatch next.
		cn := ab.NodeAt(m.crashAt, "master-crash")
		ab.Edge(m.an.begin, cn, attrib.Unattributed, "")
		rn := ab.NodeAt(m.restartAt, "master-restart")
		ab.Edge(cn, rn, attrib.MasterOutage, "")
		m.an.cause = ab.After(rn, attrib.RecoveryReplay, "master-recovered", "")
	}
	// Deliver held worker messages in arrival order — the workers held
	// them and re-send on reconnect in both recovery modes.
	q := r.held
	r.held = nil
	for _, fn := range q {
		fn()
	}
	if r.finished {
		return
	}
	m.reconcile()
	// A rebuilt (or amnesiac) catalog is a fresh derivation base: templates
	// cached before the crash must not survive it.
	r.gen++
	if m.det != nil {
		m.det.d.Resume()
	}
	if m.dur != nil {
		m.dur.scan()
	}
	r.kickAll()
	r.checkDone()
}

// amnesiaWipe is the state an unjournaled master restarts with: it knows the
// job spec and its own storage (which files it evacuated), but not which
// workers hold copies or which files it declared lost. Evacuated files are
// noted as known-with-no-holder, so the recovery rescan — which builds the
// fresh map's under-replication index, once — declares them lost: the
// honest price of losing the replica map.
func (m *masterHook) amnesiaWipe() {
	r, d := m.r, m.dur
	r.replicas.Reset()
	if d != nil {
		for f, evacuated := range d.evacuated {
			if evacuated && !d.lost[f] {
				r.replicas.NoteID(int32(f))
			}
		}
	}
}

// amnesiaForgetLedger drops the completion ledger the way the wipe drops
// the replica map: every task that went terminal before the crash becomes,
// in the master's belief, never-run. It runs before the held messages are
// delivered, so a completion held during the outage cannot finish the run
// on counts the master no longer believes.
func (m *masterHook) amnesiaForgetLedger() {
	r := m.r
	for gi := range m.doneTruth {
		if r.forgot[gi] {
			continue // an earlier episode's re-queue: belief already adjusted
		}
		if r.forgot == nil {
			r.forgot = make(map[int]bool)
		}
		r.forgot[gi] = true
		r.led.Forget()
		r.res.OrphansReconciled++
	}
}

// reconcile rebuilds the dispatch queue from what survives: a task is
// pending unless the master's ledger has it terminal or a live worker holds
// an in-flight attempt for it. Worker backlogs are master memory and did not
// survive the process; their tasks fold into the shared queue. In amnesia
// the forgotten completions (amnesiaForgetLedger) come back as pending —
// re-execution the journal would have prevented.
func (m *masterHook) reconcile() {
	r := m.r
	// was marks each task queued (1), or in flight on a worker (2).
	queue, was := r.led.Queue(), make([]uint8, len(r.wl.Tasks))
	for _, gi := range queue {
		was[gi] = 1
	}
	for _, w := range r.workers {
		for _, f := range w.InFlight() {
			was[f.Group] = 2
		}
	}
	pending := make([]int, 0, len(queue))
	for gi := range r.wl.Tasks {
		if was[gi] == 2 {
			continue
		}
		if m.doneTruth[gi] {
			if r.forgot[gi] {
				// Forgotten by the wipe (or a still-unsettled re-queue from
				// an earlier episode): dispatch it again.
				pending = append(pending, gi)
			}
			continue
		}
		pending = append(pending, gi)
		if was[gi] == 0 {
			r.res.OrphansReconciled++
		}
	}
	r.led.Rebuild(pending)
}

// JournalCheck replays the snapshot+journal and byte-compares the
// reconstructed control-plane state against both the journal's shadow view
// and the live replica map. The ablation property test calls it after every
// cell; a masterfail run asserts the same thing on every recovery.
func (r *Runner) JournalCheck() error {
	m := r.mf()
	if m == nil || !m.cfg.Journal {
		return fmt.Errorf("simrun: journal not enabled (set Config.Master.Journal)")
	}
	replayed, err := catalog.Replay(m.snap, m.wal.Bytes())
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
