package simrun

import (
	"fmt"

	"frieda/internal/obs"
)

// traceHook records the core loop's spans and instants (Config.Tracer):
// compute spans on per-core lanes, transfer spans with their attempts nested
// on per-worker transfer lanes, and dispatch, retry, join and death instants.
// The feature plug-ins emit their own on the same tracer.
type traceHook struct {
	nopHook
	r  *Runner
	tr *obs.Tracer
}

func (t *traceHook) join(w *simWorker) { t.tr.Instant(w.name, "sched", "worker-joined", nil) }

func (t *traceHook) workerDeath(w *simWorker) { t.tr.Instant(w.name, "fault", "worker-died", nil) }

func (t *traceHook) dispatch(w *simWorker, att *taskAttempt) {
	t.tr.Instant(w.name, "sched", "dispatch", obs.Args{
		"task": att.task, "bytes": t.r.wl.Tasks[att.task].InputBytes(),
	})
}

func (t *traceHook) transfer(s *stageIn, o outcome, _ string) {
	switch o {
	case xferStart:
		if s.n == 1 {
			s.lane = claimLane(&s.w.xferLanes)
			s.track = fmt.Sprintf("%s/net%d", s.w.name, s.lane)
			s.span = t.tr.Begin(s.track, "transfer", t.transferName(s.files), obs.Args{
				"worker": s.w.name, "bytes": s.bytes, "files": len(s.files),
			})
		}
		if s.flow != nil {
			s.attempt = t.tr.Begin(s.track, "attempt", fmt.Sprintf("attempt %d", s.n), obs.Args{
				"src": s.src.Name(), "bytes": s.remaining,
			})
		}
	case xferCorrupt:
		endAttempt(s, obs.Args{"outcome": "corrupt"})
		t.tr.Instant(s.track, "durability", "checksum-mismatch", obs.Args{"refetch": s.refetches})
	case xferInterrupted:
		endAttempt(s, obs.Args{"outcome": "interrupted", "delivered": s.delivered})
	case xferRetry:
		if s.span != nil {
			t.tr.Instant(s.track, "transfer", "retry-scheduled", obs.Args{
				"delay_sec": float64(s.backoff), "next_attempt": s.n + 1,
			})
		}
	case xferOK, xferRejected, xferLost, xferAbandoned:
		endStage(s, stageEnd[o])
	}
}

// stageEnd labels a closed transfer span with how the transfer ended.
var stageEnd = map[outcome]string{xferOK: "ok", xferRejected: "corrupt", xferLost: "lost", xferAbandoned: "abandoned"}

func (t *traceHook) compute(w *simWorker, att *taskAttempt, o outcome) {
	switch o {
	case runStart:
		cat := "task"
		if att.clone {
			cat = "spec"
		}
		att.lane = claimLane(&w.cpuLanes)
		att.span = t.tr.Begin(fmt.Sprintf("%s/cpu%d", w.name, att.lane), cat,
			fmt.Sprintf("task %d", att.task), obs.Args{
				"worker": w.name, "attempt": t.r.led.Attempts(att.task) + 1,
			})
	case runOK:
		endTaskSpan(w, att, "ok")
	case runKilled:
		endTaskSpan(w, att, "killed")
	case runCancelled:
		endTaskSpan(w, att, "spec-lost")
		t.tr.Instant(w.name, "spec", "spec-cancelled", obs.Args{"task": att.task})
	}
}

// transferName labels a logical transfer span.
func (t *traceHook) transferName(files []int32) string {
	switch {
	case len(files) == 1 && files[0] == t.r.common:
		return "stage common"
	case len(files) == 1:
		return "xfer " + t.r.replicas.FileName(files[0])
	default:
		return fmt.Sprintf("xfer %d files", len(files))
	}
}

// endAttempt closes the stage's open attempt span, if any.
func endAttempt(s *stageIn, args obs.Args) {
	if s.attempt != nil {
		s.attempt.End(args)
		s.attempt = nil
	}
}

// endStage closes the transfer's spans and frees its trace lane; a no-op on
// an already-closed stage.
func endStage(s *stageIn, outcome string) {
	if s.span == nil {
		return
	}
	endAttempt(s, obs.Args{"outcome": outcome})
	s.span.End(obs.Args{"outcome": outcome})
	s.span = nil
	releaseLane(s.w.xferLanes, s.lane)
}

// endTaskSpan closes an attempt's open compute span and frees its cpu lane.
func endTaskSpan(w *simWorker, att *taskAttempt, outcome string) {
	if att.span == nil {
		return
	}
	att.span.End(obs.Args{"outcome": outcome})
	att.span = nil
	releaseLane(w.cpuLanes, att.lane)
}

// claimLane returns the smallest free lane index, growing the lane set on
// demand. Lanes exist so overlapping spans on one worker land on distinct
// trace tracks, which viewers require for valid nesting.
func claimLane(lanes *[]bool) int {
	for i, busy := range *lanes {
		if !busy {
			(*lanes)[i] = true
			return i
		}
	}
	*lanes = append(*lanes, true)
	return len(*lanes) - 1
}

// releaseLane frees a claimed lane.
func releaseLane(lanes []bool, i int) { lanes[i] = false }
