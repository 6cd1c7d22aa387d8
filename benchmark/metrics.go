package main

import (
	"fmt"
	"math"

	"lobster/internal/stats"
)

// metricDef names one metric. The tables below are the single source of
// the names, units and directions; BENCHMARK.json repeats them and the
// smoke test fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed relative worsening
}

// value is one measured metric: its unit travels with it everywhere.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Rounds are the per-round values behind an end-to-end median, kept so
	// -compare can give quartiles; per-layer metrics leave it empty.
	Rounds []float64 `json:"rounds,omitempty"`
	// Base is the byte or iteration count a probe's number was taken over.
	Base string `json:"base,omitempty"`
}

// endToEnd lists the metrics that carry a bound, for every workload. The
// issue's list was longer: failed_frac is always 0, which the contract
// forbids (failures travel as attempted/failed), and every metric with the
// clock or CPU time in it is in runMetrics below, because the reference
// host cannot hold a bound on those (see README.md, "What carries a bound").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// runMetrics are what a user of the system sees on the clock, taken on the
// untraced stack exactly like the end-to-end metrics. On the shared 2-core
// reference host their run-to-run spread (11-34% on small-tasks, CPU time
// included) is wider than any bound the contract allows, so they are listed with the per-layer
// metrics and carry none; compare them in alternating pairs.
var runMetrics = []metricDef{
	{Name: "run.wall_s", Unit: "s", Better: "lower"},
	{Name: "run.tasks_per_s", Unit: "tasks/s", Better: "higher"},
	{Name: "run.data_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "run.task_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "run.task_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "run.goodput_frac", Unit: "frac", Better: "higher"},
	{Name: "run.cpu_s", Unit: "s", Better: "lower"},
}

// untracedDefs is everything an untraced stack measures.
var untracedDefs = append(append([]metricDef(nil), endToEnd...), runMetrics...)

// perLayer lists what a --trace 1 run reports: the run.* metrics from its
// untraced rounds, the layer metrics (layer = package name) from its traced
// rounds, then the idle-stack probes.
var perLayer = append(append([]metricDef(nil), runMetrics...), layerMetricDefs...)

var layerMetricDefs = []metricDef{
	{Name: "wq.dispatch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wq.dispatch_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "wq.return_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wq.return_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "wq.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wq.dispatches", Unit: "count", Better: "lower"},
	{Name: "wq.requeues", Unit: "count", Better: "lower"},
	{Name: "wq.workers_lost", Unit: "count", Better: "lower"},
	{Name: "wq.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "wq.bytes_received", Unit: "B", Better: "lower"},
	{Name: "wq.slot_s", Unit: "s", Better: "lower"},
	{Name: "wq.slot_busy_share", Unit: "frac", Better: "higher"},
	{Name: "wq.lost_s", Unit: "s", Better: "lower"},
	{Name: "wq.master_span_self_s", Unit: "s", Better: "lower"},
	{Name: "wq.worker_span_self_s", Unit: "s", Better: "lower"},
	{Name: "wrapper.setup_s", Unit: "s", Better: "lower"},
	{Name: "wrapper.conditions_s", Unit: "s", Better: "lower"},
	{Name: "wrapper.stage_in_s", Unit: "s", Better: "lower"},
	{Name: "wrapper.execute_s", Unit: "s", Better: "lower"},
	{Name: "wrapper.stage_out_s", Unit: "s", Better: "lower"},
	{Name: "wrapper.overhead_s", Unit: "s", Better: "lower"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.merge_s", Unit: "s", Better: "lower"},
	{Name: "core.merge_tail_s", Unit: "s", Better: "lower"},
	{Name: "core.merges", Unit: "count", Better: "lower"},
	{Name: "core.task_attempts", Unit: "count", Better: "lower"},
	{Name: "core.retries", Unit: "count", Better: "lower"},
	{Name: "xrootd.lookups", Unit: "count", Better: "lower"},
	{Name: "xrootd.bytes", Unit: "B", Better: "lower"},
	{Name: "xrootd.span_self_s", Unit: "s", Better: "lower"},
	{Name: "chirp.requests", Unit: "count", Better: "lower"},
	{Name: "chirp.bytes_in", Unit: "B", Better: "lower"},
	{Name: "chirp.bytes_out", Unit: "B", Better: "lower"},
	{Name: "chirp.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "chirp.span_self_s", Unit: "s", Better: "lower"},
	{Name: "chirp.server_span_self_s", Unit: "s", Better: "lower"},
	{Name: "squid.hits", Unit: "count", Better: "higher"},
	{Name: "squid.misses", Unit: "count", Better: "lower"},
	{Name: "squid.coalesced", Unit: "count", Better: "higher"},
	{Name: "squid.bytes_fetched", Unit: "B", Better: "lower"},
	{Name: "squid.span_self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.evictions", Unit: "count", Better: "lower"},
	{Name: "cluster.pilots_started", Unit: "count", Better: "lower"},
	{Name: "store.wal_bytes", Unit: "B", Better: "lower"},
	{Name: "hepsim.events", Unit: "count", Better: "higher"},
	{Name: "hepsim.bytes_in", Unit: "B", Better: "higher"},
	{Name: "hepsim.bytes_out", Unit: "B", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.orphans", Unit: "count", Better: "lower"},
	{Name: "trace.overlap_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.closure_err", Unit: "frac", Better: "lower"},

	{Name: "hepsim.process_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "hepsim.generate_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "wq.loopback_tasks_per_s", Unit: "tasks/s", Better: "higher"},
	{Name: "xrootd.open_us", Unit: "us", Better: "lower"},
	{Name: "xrootd.readat_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "xrootd.fetchto_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chirp.put_small_us", Unit: "us", Better: "lower"},
	{Name: "chirp.put_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chirp.get_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "squid.hit_us", Unit: "us", Better: "lower"},
	{Name: "squid.miss_us", Unit: "us", Better: "lower"},
	{Name: "frontier.fetch_us", Unit: "us", Better: "lower"},
	{Name: "parrot.warm_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "parrot.warm_hot_ms", Unit: "ms", Better: "lower"},
	{Name: "hdfs.write_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "hdfs.read_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "monitor.add_ns", Unit: "ns", Better: "lower"},
}

// metrics is a named set of values; set refuses a name its table lacks or
// a value that is not a finite number, so a typo or a division by zero
// fails the run instead of publishing a hole.
type metrics struct {
	defs   map[string]metricDef
	Values map[string]value
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{defs: make(map[string]metricDef, len(defs)), Values: make(map[string]value, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metrics) set(name string, v float64) {
	m.put(name, value{Value: v})
}

func (m *metrics) put(name string, v value) {
	d, ok := m.defs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	v.Unit = d.Unit
	m.Values[name] = v
}

// complete reports the first table metric that is missing or not finite.
func (m *metrics) complete() error {
	for name := range m.defs {
		v, ok := m.Values[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for an empty slice (a baseline has no set-ups).
func quantile(xs []float64, q float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0] // Empirical.Quantile interpolates and needs two samples
	}
	return stats.NewEmpirical(xs).Quantile(q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
