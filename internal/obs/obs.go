// Package obs is the virtual-time observability layer: structured trace
// events and a metrics registry shared by every simulation layer (sim,
// netsim, simrun, fault, elastic).
//
// The paper explains FRIEDA's results through time-decomposition of
// transfer/compute overlap (Figs 6-7); reproducing that analysis honestly
// requires recording *why* things happened — a flow re-rated by the max-min
// solver, a transfer attempt interrupted by a link fault, a worker suspected
// by the detector — not reconstructing phases from completion records after
// the fact. A Tracer records typed spans and instant events keyed by virtual
// timestamps from sim.Engine; exporters render them as Chrome trace-event
// JSON loadable in Perfetto (chrome.go) or aggregate them into phase
// summaries (internal/trace).
//
// Everything is nil-safe: a nil *Tracer (and nil *Span, nil *Metrics, nil
// *Histogram) turns every recording call into a single branch, so disabled
// tracing changes zero behaviour and costs next to nothing. Recording never
// schedules events, consumes randomness, or mutates simulation state, so a
// traced run is event-for-event identical to an untraced one; under a fixed
// seed the recorded stream — and therefore the exported bytes — are
// deterministic.
package obs

import (
	"frieda/internal/sim"
)

// Args carries structured annotations on an event. Values should be strings,
// bools, integers, or finite floats — they are exported to JSON, where
// encoding/json's sorted map keys keep output deterministic.
type Args map[string]any

// Phase discriminates event kinds, mirroring the Chrome trace-event "ph"
// field.
type Phase byte

const (
	// PhaseSpan is a complete span with a start and a duration ("X").
	PhaseSpan Phase = 'X'
	// PhaseInstant is a point event ("i").
	PhaseInstant Phase = 'i'
	// PhaseCounter is a sampled counter value ("C").
	PhaseCounter Phase = 'C'
)

// Event is one recorded trace event. Spans are appended when they End, so
// the event order is completion order; Ts always carries the span's start.
type Event struct {
	// Name labels the event ("task 12", "attempt 2", "suspect").
	Name string
	// Cat is the event taxonomy category ("task", "transfer", "attempt",
	// "netsim", "fault", "sched", "elastic").
	Cat string
	// Phase is the event kind.
	Phase Phase
	// Track names the timeline the event belongs to (a worker core lane, a
	// worker transfer lane, a link, "detector", "autoscale").
	Track string
	// Ts is the event's virtual start time.
	Ts sim.Time
	// Dur is the span duration (PhaseSpan only).
	Dur sim.Duration
	// EndTs is the exact virtual end time (PhaseSpan only). It is recorded
	// separately because Ts+Dur can differ from the engine's end timestamp in
	// the last float64 bit, which would micro-overlap back-to-back spans.
	EndTs sim.Time
	// Value is the sampled value (PhaseCounter only).
	Value float64
	// Args are the structured annotations.
	Args Args
}

// End returns the event's virtual end time (start for non-spans).
func (e Event) End() sim.Time {
	if e.Phase == PhaseSpan {
		return e.EndTs
	}
	return e.Ts
}

// Tracer records events against one simulation engine's virtual clock. The
// zero value is not usable; a nil Tracer is the disabled tracer and every
// method on it is a no-op.
type Tracer struct {
	eng    *sim.Engine
	name   string
	events []Event
}

// NewTracer returns a tracer recording against eng's virtual clock. name
// labels the process track in exported traces (typically the run label).
func NewTracer(eng *sim.Engine, name string) *Tracer {
	if eng == nil {
		panic("obs: nil engine")
	}
	return &Tracer{eng: eng, name: name}
}

// Enabled reports whether the tracer records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Name returns the tracer's process label ("" for nil).
func (t *Tracer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Events returns the recorded events in completion order. The slice is the
// tracer's own backing store; callers must treat it as read-only.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len reports how many events have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Span is an open span handle returned by Begin. A nil Span (from a nil
// Tracer) ignores End.
type Span struct {
	t          *Tracer
	track, cat string
	name       string
	start      sim.Time
	args       Args
}

// Begin opens a span on the given track at the current virtual time. The
// span is recorded when End is called; a span never Ended is never recorded.
func (t *Tracer) Begin(track, cat, name string, args Args) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, track: track, cat: cat, name: name, start: t.eng.Now(), args: args}
}

// End closes the span at the current virtual time, merging extra into the
// Begin args (extra wins on key collisions), and records it. End on a nil or
// already-ended span is a no-op.
func (s *Span) End(extra Args) {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	s.t = nil // make End idempotent
	now := t.eng.Now()
	t.events = append(t.events, Event{
		Name:  s.name,
		Cat:   s.cat,
		Phase: PhaseSpan,
		Track: s.track,
		Ts:    s.start,
		Dur:   now - s.start,
		EndTs: now,
		Args:  mergeArgs(s.args, extra),
	})
}

// SpanAt records a complete span with explicit bounds — the retroactive
// form used by exporters that decorate a finished run, like the
// critical-path highlight lane built from a solved attribution report.
// Spans with end before start are dropped.
func (t *Tracer) SpanAt(track, cat, name string, start, end sim.Time, args Args) {
	if t == nil || end < start {
		return
	}
	t.events = append(t.events, Event{
		Name:  name,
		Cat:   cat,
		Phase: PhaseSpan,
		Track: track,
		Ts:    start,
		Dur:   end - start,
		EndTs: end,
		Args:  args,
	})
}

// Instant records a point event at the current virtual time.
func (t *Tracer) Instant(track, cat, name string, args Args) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Phase: PhaseInstant, Track: track,
		Ts: t.eng.Now(), Args: args,
	})
}

// Counter records a sampled counter value at the current virtual time.
// Exporters render one counter track per (track, name) pair.
func (t *Tracer) Counter(track, name string, value float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: name, Phase: PhaseCounter, Track: track,
		Ts: t.eng.Now(), Value: value,
	})
}

// mergeArgs merges extra into base without mutating either.
func mergeArgs(base, extra Args) Args {
	if len(extra) == 0 {
		return base
	}
	if len(base) == 0 {
		return extra
	}
	out := make(Args, len(base)+len(extra))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}
