// Package telemetry is Lobster's unified observability layer: a
// stdlib-only metrics registry (atomic counters, gauges, fixed-bucket
// histograms, all optionally labelled), lightweight span tracing for the
// task lifecycle, a Prometheus-text /metrics plane (the one format every
// process is read through), and a JSONL structured event log the monitor
// can replay after a crash.
//
// # The real plane's series
//
// The registry observes the real execution plane: every series is
// registered by the component that owns it. The discrete-event simulator
// computes its figures from its model and registers none. Every instrument
// reads time through the registry's Clock, the wall clock unless a test
// installs a stepped one with SetClock.
//
// # Zero cost when disabled
//
// All instrument methods are nil-receiver safe: a component built
// without a registry holds nil *Counter / *Gauge / *Histogram fields and every Inc/Set/Observe on them is a single
// predictable branch (≤2 ns, zero allocations — see
// BenchmarkTelemetryOverhead). The same holds for a nil *StageHistograms
// and for a nil *Registry, whose constructors return nil instruments.
// Components therefore instrument unconditionally. A count a component's
// Stats reports is the exception: a Counter value the component owns and
// counts into from construction, which its constructor publishes as it is
// (CounterVec.Publish) when handed a registry, so the page and Stats read
// one count.
//
// # Naming scheme
//
// Series follow the Prometheus convention lobster_<subsystem>_<what>_<unit>:
// counters end in _total, sizes in _bytes, durations in _seconds, and
// instantaneous values carry no suffix (gauges). Subsystems are wq, squid,
// chirp, cluster, core and task.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock returns the current time in seconds from an arbitrary origin: by
// default seconds since registry creation.
type Clock func() float64

// maxSeries is the fixed bound on the label cardinality of one metric family.
// Series beyond the bound collapse into a single overflow series (labels
// "_other") and increment lobster_telemetry_dropped_series_total, so a
// label-explosion bug degrades the metric instead of exhausting memory.
const maxSeries = 256

// kind discriminates metric families.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// Registry holds metric families and the shared clock. All methods are safe
// for concurrent use and safe on a nil receiver (returning nil instruments,
// which are themselves no-ops).
type Registry struct {
	mu       sync.Mutex
	clock    Clock
	epoch    time.Time
	families map[string]*family
	dropped  *Counter // series lost to the cardinality bound
}

// family is one named metric with a fixed label scheme.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram upper bounds

	mu       sync.Mutex
	series   map[string]instrument // key: joined label values
	order    []string              // series keys in creation order
	values   map[string][]string   // key → label values
	fn       func() float64        // kindGaugeFunc
	overflow instrument            // shared series past the cardinality bound
}

// instrument is the common interface of concrete metric series.
type instrument interface{ isInstrument() }

// NewRegistry returns a registry on the wall clock (seconds since creation).
func NewRegistry() *Registry {
	r := &Registry{
		epoch:    time.Now(),
		families: make(map[string]*family),
	}
	r.clock = func() float64 { return time.Since(r.epoch).Seconds() }
	r.dropped = r.Counter("lobster_telemetry_dropped_series_total",
		"Series discarded because a metric family exceeded its label-cardinality bound.")
	return r
}

// SetClock installs clock as the registry time source: the tests' seam for
// stepping time through the hub, the tracer and the instruments. Install
// before concurrent use (right after NewRegistry); a nil clock or registry
// is ignored.
func (r *Registry) SetClock(clock Clock) {
	if r == nil || clock == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// Now reads the registry clock. A nil registry reads as 0.
func (r *Registry) Now() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	return c()
}

// lookup returns the family for name, creating it on first use. Re-registering
// an existing name returns the existing family when the shape matches and
// panics otherwise (a programming error, like a duplicate flag).
func (r *Registry) lookup(name, help string, k kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]instrument),
		values:  make(map[string][]string),
	}
	r.families[name] = f
	return f
}

// seriesKey joins label values; a single value is returned as-is so the
// common one-label With avoids allocating.
func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}

// get returns the series for the label values, creating it via mk on first
// use and honouring the cardinality bound.
func (f *family) get(values []string, dropped *Counter, mk func() instrument) instrument {
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ins, ok := f.series[key]; ok {
		return ins
	}
	if len(f.series) >= maxSeries {
		dropped.Inc()
		if f.overflow == nil {
			f.overflow = mk()
			over := make([]string, len(f.labels))
			for i := range over {
				over[i] = "_other"
			}
			okey := seriesKey(over)
			if _, exists := f.series[okey]; !exists {
				f.series[okey] = f.overflow
				f.order = append(f.order, okey)
				f.values[okey] = over
			}
		}
		return f.overflow
	}
	ins := mk()
	f.series[key] = ins
	f.order = append(f.order, key)
	f.values[key] = append([]string(nil), values...)
	return ins
}

// sortedFamilies snapshots the families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
