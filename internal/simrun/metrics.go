package simrun

import "frieda/internal/obs"

// metricsHook samples the core's columns on Config.Metrics' virtual-time
// ticker — load, flows, goodput and gauges over the Result counts — plus the
// task and transfer duration histograms. Durability and gray register their
// own columns.
type metricsHook struct {
	nopHook
	r                *Runner
	m                *obs.Metrics
	taskSec, xferSec *obs.Histogram
}

func newMetrics(r *Runner) *metricsHook {
	m := r.cfg.Metrics
	m.Gauge("queue_depth", func() float64 { return float64(r.QueueLen()) })
	m.Gauge("live_workers", func() float64 { return float64(r.LiveWorkers()) })
	m.Gauge("busy_slots", func() float64 { b, _ := r.SlotStats(); return float64(b) })
	m.Gauge("total_slots", func() float64 { _, t := r.SlotStats(); return float64(t) })
	m.Gauge("active_flows", func() float64 { return float64(r.activeFlows) })
	m.Gauge("goodput_bps", r.cluster.Network().AggregateRateBps)
	m.Gauge("terminal_tasks", func() float64 { return float64(r.led.Terminal()) })
	m.Gauge("bytes_moved", func() float64 { return r.res.BytesMoved })
	countGauge(m, "tasks_ok", &r.res.Succeeded)
	countGauge(m, "tasks_failed", &r.res.Abandoned)
	m.Gauge("task_requeues", func() float64 { return float64(r.led.Requeues()) })
	countGauge(m, "transfer_interrupts", &r.res.TransferInterrupts)
	countGauge(m, "transfer_retries", &r.res.TransferRetries)
	return &metricsHook{
		r:       r,
		m:       m,
		taskSec: m.Histogram("task_sec", []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}),
		xferSec: m.Histogram("transfer_sec", []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000}),
	}
}

// countGauge registers a metrics column that samples one count the run
// keeps, so each run statistic is kept once.
func countGauge(m *obs.Metrics, name string, n *int) {
	m.Gauge(name, func() float64 { return float64(*n) })
}

func (h *metricsHook) start()  { h.m.StartSampling() }
func (h *metricsHook) finish() { h.m.StopSampling() }

func (h *metricsHook) transfer(s *stageIn, o outcome, _ string) {
	if o == xferOK {
		h.xferSec.Observe(float64(h.r.eng.Now() - s.startAt))
	}
}

func (h *metricsHook) settle(c *Completion) {
	if c.OK {
		h.taskSec.Observe(float64(c.End - c.Start))
	}
}
