package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
)

// --- Counter ---

// Counter is a monotonically-increasing integer series. The nil Counter is
// a no-op, so disabled telemetry costs one branch per call.
type Counter struct {
	v atomic.Int64
}

func (*Counter) isInstrument() {}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by n; negative deltas are ignored (counters
// are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, labels, nil), r: r}
}

// CounterVec resolves label values to Counter series.
type CounterVec struct {
	f *family
	r *Registry
}

// With returns the series for the given label values, creating it on first
// use. Resolve once and keep the *Counter on hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values, v.r.dropped, func() instrument { return new(Counter) }).(*Counter)
}

// Publish makes c, a counter its component owns and counts into from
// construction, the series for the given label values: the page reads the
// component's own count, with no second counter to keep equal to it.
// Publishing c again changes nothing; publishing into a series that holds
// another counter panics, as a name re-registered with a different shape
// does, so a component publishes one instance per registry. A nil v is a
// no-op.
func (v *CounterVec) Publish(c *Counter, values ...string) {
	if v == nil {
		return
	}
	if got := v.f.get(values, v.r.dropped, func() instrument { return c }); got != instrument(c) {
		panic(fmt.Sprintf("telemetry: %s%q already holds another counter", v.f.name, values))
	}
}

// --- Gauge ---

// Gauge is an instantaneous float64 value. The nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

func (*Gauge) isInstrument() {}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g != nil {
		g.add(delta)
	}
}

func (g *Gauge) add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or finds) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labels, nil), r: r}
}

// GaugeVec resolves label values to Gauge series.
type GaugeVec struct {
	f *family
	r *Registry
}

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(values, v.r.dropped, func() instrument { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// collection (scrape or snapshot). fn must be safe to call from any
// goroutine. Useful for values a component already tracks under its own
// lock (queue depths, cache occupancy, hit ratios).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	f := r.lookup(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// --- Histogram ---

// DefBuckets is the default histogram bucket set, spanning the latencies
// the stack observes: from sub-millisecond dispatches to the multi-hour
// cold-cache setups of Figure 11 (seconds).
var DefBuckets = []float64{
	0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300, 900, 3600, 14400,
}

// Histogram counts observations into fixed buckets with Prometheus
// semantics: bucket i holds observations v ≤ upper[i] (cumulative counts
// are produced at exposition). The nil Histogram is a no-op.
type Histogram struct {
	upper  []float64
	counts []atomic.Int64 // len(upper)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	n      atomic.Int64
}

func (*Histogram) isInstrument() {}

// Observe records v. The nil check lives in this thin wrapper so the
// disabled path inlines to a single branch at every call site.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.observe(v)
	}
}

func (h *Histogram) observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Histogram registers (or finds) an unlabelled histogram. A nil buckets
// slice uses DefBuckets. Buckets must be sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or finds) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labels, buckets), r: r}
}

// HistogramVec resolves label values to Histogram series.
type HistogramVec struct {
	f *family
	r *Registry
}

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	buckets := v.f.buckets
	return v.f.get(values, v.r.dropped, func() instrument {
		return &Histogram{upper: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
	}).(*Histogram)
}
