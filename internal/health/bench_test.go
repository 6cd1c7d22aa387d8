package health

import (
	"bytes"
	"fmt"
	"testing"

	"lobster/internal/telemetry"
)

// benchPage renders one endpoint's exposition page the way a live
// component serves it: a registry populated with the series shapes the
// real daemons export (plain counters, labelled vecs, gauges, a stage
// histogram), written through WritePrometheus. ~40 series per page, the
// footprint of an instrumented worker.
func benchPage(seed int) []byte {
	reg := telemetry.NewRegistry()
	reg.SetClock(func() float64 { return 1000 })
	done := reg.Counter("lobster_wq_tasks_done_total", "tasks completed")
	done.Add(int64(100 + seed))
	reg.Counter("lobster_wq_tasks_failed_total", "tasks failed").Add(int64(seed % 7))
	reg.Counter("lobster_evictions_total", "workers evicted").Add(int64(seed % 3))
	reg.Gauge("lobster_wq_tasks_running", "tasks running").Set(float64(seed % 32))
	reg.Gauge("lobster_wq_tasks_waiting", "tasks waiting").Set(float64(seed % 16))
	reg.Gauge("lobster_cluster_pilots_up", "pilots up").Set(float64(seed%900 + 100))
	reg.Gauge("lobster_chirp_queued_connections", "chirp waiters").Set(float64(seed % 4))
	by := reg.CounterVec("lobster_bytes_total", "bytes moved", "component", "direction", "site")
	for _, c := range []string{"chirp", "xrootd", "squid", "wq"} {
		by.With(c, "in", "").Add(int64(seed * 1024))
		by.With(c, "out", "").Add(int64(seed * 512))
	}
	depth := reg.GaugeVec("lobster_wq_shard_queue_depth", "ready tasks per shard", "shard")
	for i := 0; i < 16; i++ {
		depth.With(fmt.Sprint(i)).Set(float64((seed + i) % 24))
	}
	h := reg.Histogram("lobster_wq_worker_exec_seconds", "task wall time",
		[]float64{1, 10, 60, 300, 1800})
	for i := 0; i < 8; i++ {
		h.Observe(float64(10 + (seed+i)%200))
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	return b.Bytes()
}

// BenchmarkFleetTick100 pins the cost of one full hub tick over a
// 100-endpoint fleet: 100 exposition pages parsed, stamped, merged into
// the fleet index, and the default rule set evaluated against it. This
// is the steady-state cost lobster-fleet pays every scrape interval;
// bench-guard holds it against its BENCH_health.json rule.
func BenchmarkFleetTick100(b *testing.B) {
	const n = 100
	eps := make([]Endpoint, n)
	for i := range eps {
		comp := "worker"
		if i == 0 {
			comp = "master"
		}
		eps[i] = Endpoint{
			Name:      fmt.Sprintf("%s-%d", comp, i),
			Component: comp,
			Source:    &StaticSource{Text: benchPage(i + 1)},
		}
	}
	now := 0.0
	hub := NewHub(Config{
		Endpoints: eps,
		Rules:     NewRuleSet(DefaultRules()),
		Clock:     func() float64 { return now },
	})
	// Warm once so map growth and slice capacity settle out of the
	// measured steady state.
	now = 60
	hub.Tick()
	series := len(hub.Fleet().Series)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 60
		hub.Tick()
	}
	b.ReportMetric(float64(series), "series/tick")
}
