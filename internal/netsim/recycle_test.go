package netsim

import (
	"testing"

	"frieda/internal/sim"
)

// A flow is its owner's until the owner hears how it ended; then the
// network takes it back and the next StartFlow reuses the record under a new
// ID. A flow without an owner is never taken back.
func TestFlowTakenBackAfterItsEnd(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	var first *Flow
	var id uint64
	first = net.StartFlow(1e6, AppendPath(nil, src, dst, nil), &ends{done: func(sim.Time) {
		if first.free {
			t.Error("flow taken back before its owner's FlowDone returned")
		}
	}})
	id = first.ID()
	eng.Run()
	if !first.free {
		t.Fatal("finished flow not taken back")
	}
	second := net.StartFlow(1e6, AppendPath(nil, src, dst, nil), &ends{})
	if second != first || second.ID() == id || second.free {
		t.Fatalf("next flow is %p id %d (free %v), want the taken-back record %p under a new id", second, second.ID(), second.free, first)
	}
	eng.Run()
	silent := net.StartFlow(1e6, AppendPath(nil, src, dst, nil), nil)
	eng.Run()
	if silent.free || !silent.finished {
		t.Fatal("ownerless flow taken back")
	}
}

// Taking back a flow that still runs is a bug in the network, and a flow's
// event or Cancel reaching it after it was taken back is a bug in its owner:
// each panics.
func TestFlowReleaseInvariants(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))

	joined := net.StartFlow(1e6, AppendPath(nil, src, dst, nil), &ends{})
	mustPanic(t, "taking back a joined flow", func() { net.recycle(joined) })
	net.Cancel(joined)

	src.Up().SetLatency(0.5)
	delayed := net.StartFlow(1e6, AppendPath(nil, src, dst, nil), &ends{})
	mustPanic(t, "taking back a flow in its latency delay", func() { net.recycle(delayed) })
	eng.Run()
	src.Up().SetLatency(0)

	ended := net.StartFlow(1e6, AppendPath(nil, src, dst, nil), &ends{})
	eng.Run()
	mustPanic(t, "an event of a flow taken back", ended.Fire)
	mustPanic(t, "Cancel of a flow taken back", func() { net.Cancel(ended) })
}

// Cancel is final: an end the owner has not yet heard of — a birth on a
// failed link, a zero-byte finish, a later victim of the same FailLink — is
// never reported after it, and the flow is still taken back.
func TestCancelBeforeReportIsFinal(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng)
	src := net.NewHost("src", Mbps(100), Mbps(100))
	dst := net.NewHost("dst", Mbps(100), Mbps(100))
	heard := 0
	owner := &ends{done: func(sim.Time) { heard++ }, intr: func(float64, sim.Time) { heard++ }}

	net.FailLink(src.Up())
	born := net.StartFlow(1e6, AppendPath(nil, src, dst, nil), owner)
	net.Cancel(born) // interrupted at birth; the report is one event away
	empty := net.StartFlow(0, AppendPath(nil, src, dst, nil), owner)
	net.Cancel(empty) // finished at birth; the report is one event away
	eng.Run()
	net.RestoreLink(src.Up())

	// Two flows die in one FailLink; the first one's owner cancels the second.
	var second *Flow
	first := net.StartFlow(1e6, AppendPath(nil, src, dst, nil), &ends{intr: func(float64, sim.Time) {
		heard++
		net.Cancel(second)
	}})
	second = net.StartFlow(1e6, AppendPath(nil, src, dst, nil), owner)
	eng.Schedule(0.01, func() { net.FailLink(dst.Down()) })
	eng.Run()
	if heard != 1 {
		t.Fatalf("owners heard %d ends, want 1 (the first FailLink victim's)", heard)
	}
	for _, f := range []*Flow{born, empty, first, second} {
		if !f.free {
			t.Fatalf("flow %d not taken back", f.ID())
		}
	}
}
