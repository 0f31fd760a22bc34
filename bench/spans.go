package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job or sweep
// share its Iter; Parent is the Seq of the span that caused this one, or -1.
type span struct {
	Name string
	// Detail tells spans of one name apart (a sweep cell's label); self
	// times are summed per Name.
	Detail   string
	Start    time.Time
	End      time.Time
	Iter     int
	Seq      int
	Parent   int
	Workload string
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	workload string

	mu    sync.Mutex
	spans []span
}

// open records a span that is still running and returns its Seq, which its
// children name as their parent and finish takes.
func (l *spanLog) open(name, detail string, iter, parent int, start time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := len(l.spans)
	l.spans = append(l.spans, span{
		Name: name, Detail: detail, Start: start, Iter: iter, Seq: seq, Parent: parent, Workload: l.workload,
	})
	return seq
}

// finish sets the end of an open span.
func (l *spanLog) finish(seq int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[seq].End = end
}

// add records a span whose start and end are both known.
func (l *spanLog) add(name, detail string, iter, parent int, start, end time.Time) {
	l.finish(l.open(name, detail, iter, parent, start), end)
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its child spans cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		kids := children[s.Seq]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from.Before(edge) {
				from = edge
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				edge = to
			}
		}
		out[s.Name] += s.End.Sub(s.Start) - covered
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (the format
// `friedabench -trace` emits), one thread lane per iteration.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	var origin time.Time
	if len(l.spans) > 0 {
		origin = l.spans[0].Start // spans open in start order
	}
	for _, s := range l.spans {
		name := s.Name
		if s.Detail != "" {
			name += " " + s.Detail
		}
		events = append(events, event{
			Name: name, Cat: s.Workload, Ph: "X",
			Ts:  float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Pid: 1, Tid: s.Iter,
			Args: map[string]int{"seq": s.Seq, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
