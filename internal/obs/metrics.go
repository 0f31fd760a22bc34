package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"frieda/internal/sim"
)

// Metrics is a registry of gauges and histograms sampled on a
// virtual-time ticker into a time series. Like the Tracer, a nil *Metrics
// disables everything at the cost of one branch, and sampling is read-only:
// the ticker schedules engine events but never changes simulation behaviour
// (it consumes no randomness and mutates no simulated state), so a metered
// run's results are identical to an unmetered one.
type Metrics struct {
	eng    *sim.Engine
	name   string
	period sim.Duration

	cols   []*metricCol
	byName map[string]*metricCol

	hists      []*Histogram
	histByName map[string]*Histogram

	rows     []sampleRow
	sampling bool
	tick     sim.EventRef
	// tickFn is the pre-bound ticker callback, created once on the first
	// StartSampling so rearming the ticker allocates no per-tick closure.
	tickFn func()
}

// metricCol is one time-series column: a gauge sampled by calling gauge().
type metricCol struct {
	name  string
	gauge func() float64
}

// sampleRow is one sampled instant. vals is indexed by column registration
// order; columns registered after the row was taken are absent (short
// slice) and export as empty cells.
type sampleRow struct {
	ts   sim.Time
	vals []float64
}

// NewMetrics returns a registry sampling every periodSec virtual seconds
// once StartSampling is called. name labels the run in exported CSV. A
// non-positive period defaults to 10 s.
func NewMetrics(eng *sim.Engine, name string, periodSec float64) *Metrics {
	if eng == nil {
		panic("obs: nil engine")
	}
	if periodSec <= 0 {
		periodSec = 10
	}
	return &Metrics{
		eng:        eng,
		name:       name,
		period:     sim.Duration(periodSec),
		byName:     make(map[string]*metricCol),
		histByName: make(map[string]*Histogram),
	}
}

// Enabled reports whether the registry records (false for nil).
func (m *Metrics) Enabled() bool { return m != nil }

// Gauge registers a gauge column sampled by calling fn at each tick. fn must
// be read-only and deterministic. Re-registering a name replaces its fn.
func (m *Metrics) Gauge(name string, fn func() float64) {
	if m == nil {
		return
	}
	if c, ok := m.byName[name]; ok {
		c.gauge = fn
		return
	}
	m.cols = append(m.cols, &metricCol{name: name, gauge: fn})
	m.byName[name] = m.cols[len(m.cols)-1]
}

// Histogram registers (or returns the existing) histogram with the given
// upper bucket bounds (ascending; a final +Inf bucket is implicit). A nil
// registry returns a nil *Histogram, whose Observe is a no-op.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	if h, ok := m.histByName[name]; ok {
		return h
	}
	h := &Histogram{name: name, bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	m.hists = append(m.hists, h)
	m.histByName[name] = h
	return h
}

// Histograms returns the registry's histograms in registration order (nil
// for a nil registry). The slice is the registry's own backing store;
// callers must treat it as read-only.
func (m *Metrics) Histograms() []*Histogram {
	if m == nil {
		return nil
	}
	return m.hists
}

// Histogram counts observations into fixed buckets.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; counts has one extra +Inf slot
	counts []uint64
	total  uint64
	sum    float64
}

// HistName returns the histogram's registered name ("" for nil).
func (h *Histogram) HistName() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.total++
	h.sum += v
}

// Quantile estimates the q-quantile (q in [0, 1], clamped) by linear
// interpolation inside the owning bucket — the standard cumulative-bucket
// estimate, exact at bucket boundaries and linear between them. Values
// landing in the overflow bucket clamp to the highest finite bound (there
// is nothing to interpolate toward). Returns 0 for a nil or empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.total)
	prev := 0.0
	for i, c := range h.counts {
		cum := prev + float64(c)
		if c > 0 && rank <= cum {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(rank-prev)/float64(c)
		}
		prev = cum
	}
	return h.bounds[len(h.bounds)-1]
}

// Sample snapshots every column at the current virtual time.
func (m *Metrics) Sample() {
	if m == nil {
		return
	}
	vals := make([]float64, len(m.cols))
	for i, c := range m.cols {
		vals[i] = c.gauge()
	}
	m.rows = append(m.rows, sampleRow{ts: m.eng.Now(), vals: vals})
}

// StartSampling takes an immediate sample and arms the periodic ticker.
// Starting an already-sampling registry is a no-op.
func (m *Metrics) StartSampling() {
	if m == nil || m.sampling {
		return
	}
	m.sampling = true
	m.Sample()
	m.arm()
}

func (m *Metrics) arm() {
	if m.tickFn == nil {
		m.tickFn = func() {
			if !m.sampling {
				return
			}
			m.Sample()
			m.arm()
		}
	}
	m.tick = m.eng.Schedule(m.period, m.tickFn)
}

// StopSampling disarms the ticker and takes one final sample, so the series
// always covers the run's last instant. When the run ends exactly on a tick
// boundary the ticker has already sampled this instant (same-time events
// deliver FIFO, and the ticker armed first), so the final sample is skipped
// rather than duplicating the row. Stopping a stopped (or nil) registry is
// a no-op.
func (m *Metrics) StopSampling() {
	if m == nil || !m.sampling {
		return
	}
	m.sampling = false
	m.tick.Cancel()
	m.tick = sim.EventRef{}
	if n := len(m.rows); n > 0 && m.rows[n-1].ts == m.eng.Now() {
		return
	}
	m.Sample()
}

// formatMetric renders a value with the shortest round-trippable
// representation, which is deterministic for equal float64 values.
func formatMetric(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteMetricsCSV exports the registries' time series as one CSV: a `run`
// label column, the virtual timestamp, then one column per metric name in
// first-registration order across all registries (a run missing a column
// leaves its cells empty). Deterministic for deterministic runs.
func WriteMetricsCSV(w io.Writer, ms ...*Metrics) error {
	// Union of column names, in first-seen registration order.
	var names []string
	seen := make(map[string]int)
	for _, m := range ms {
		if m == nil {
			continue
		}
		for _, c := range m.cols {
			if _, ok := seen[c.name]; !ok {
				seen[c.name] = len(names)
				names = append(names, c.name)
			}
		}
	}
	if _, err := io.WriteString(w, "run,t_sec"); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := fmt.Fprintf(w, ",%s", n); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	cells := make([]string, len(names))
	for _, m := range ms {
		if m == nil {
			continue
		}
		for _, r := range m.rows {
			for i := range cells {
				cells[i] = ""
			}
			for ci, c := range m.cols {
				if ci >= len(r.vals) {
					break // column registered after this row was sampled
				}
				cells[seen[c.name]] = formatMetric(r.vals[ci])
			}
			if _, err := fmt.Fprintf(w, "%s,%s", m.name, formatMetric(float64(r.ts))); err != nil {
				return err
			}
			for _, cell := range cells {
				if _, err := io.WriteString(w, ","+cell); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteHistogramsCSV exports every registry's histograms as cumulative
// bucket rows (`le` is the bucket's inclusive upper bound, "inf" for the
// overflow bucket) plus a count/sum/mean/p50/p95/p99 summary row per
// histogram — the percentiles are bucket-interpolated (see Quantile) and
// land only on the total row; bucket rows leave those cells empty.
func WriteHistogramsCSV(w io.Writer, ms ...*Metrics) error {
	if _, err := io.WriteString(w, "run,histogram,le,count,sum,mean,p50,p95,p99\n"); err != nil {
		return err
	}
	for _, m := range ms {
		if m == nil {
			continue
		}
		for _, h := range m.hists {
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i]
				if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,,,,,\n",
					m.name, h.name, formatMetric(bound), cum); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.bounds)]
			if _, err := fmt.Fprintf(w, "%s,%s,inf,%d,,,,,\n", m.name, h.name, cum); err != nil {
				return err
			}
			mean := 0.0
			if h.total > 0 {
				mean = h.sum / float64(h.total)
			}
			if _, err := fmt.Fprintf(w, "%s,%s,total,%d,%s,%s,%s,%s,%s\n",
				m.name, h.name, h.total, formatMetric(h.sum), formatMetric(mean),
				formatMetric(h.Quantile(0.50)), formatMetric(h.Quantile(0.95)),
				formatMetric(h.Quantile(0.99))); err != nil {
				return err
			}
		}
	}
	return nil
}
