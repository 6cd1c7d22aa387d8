package tsdb

import (
	"fmt"
	"testing"
)

// BenchmarkAppendSteady measures the steady-state append path: known
// series, block not yet full. A BENCH_tsdb.json rule pins this at 0 allocs/op.
func BenchmarkAppendSteady(b *testing.B) {
	s := New(Config{})
	labels := map[string]string{"component": "wq", "instance": "master-0"}
	s.Append("lobster_wq_tasks_done_total", labels, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append("lobster_wq_tasks_done_total", labels, float64(i)*5, float64(i))
	}
}

// BenchmarkAppendFleet100 is the 100-endpoint hub shape: ~40 series per
// endpoint, one sample each per 5 s tick. It reports Stats'
// bytes/sample, which a BENCH_tsdb.json rule bounds at 2.
func BenchmarkAppendFleet100(b *testing.B) {
	s := New(Config{})
	const endpoints = 100
	const seriesPer = 40
	labels := make([]map[string]string, endpoints)
	names := make([]string, seriesPer)
	for e := range labels {
		labels[e] = map[string]string{"component": "worker", "instance": fmt.Sprintf("w-%03d", e)}
	}
	for j := range names {
		names[j] = fmt.Sprintf("lobster_metric_%02d_total", j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tick := 0
	for i := 0; i < b.N; i++ {
		t := float64(tick) * 5
		for e := 0; e < endpoints; e++ {
			for j := 0; j < seriesPer; j++ {
				// Mostly-static gauges with a few advancing counters —
				// the realistic scrape mix.
				v := float64(j)
				if j%4 == 0 {
					v = float64(tick * (e + 1))
				}
				s.Append(names[j], labels[e], t, v)
			}
		}
		tick++
	}
	b.StopTimer()
	st := s.Stats()
	if st.Samples > 0 {
		b.ReportMetric(float64(st.Bytes)/float64(st.Samples), "bytes/sample")
	}
}

// BenchmarkRangeQuery1M evaluates a windowed rate over a 1M-sample
// store — BENCH_tsdb.json bounds it absolutely (< 50 ms).
func BenchmarkRangeQuery1M(b *testing.B) {
	s := New(Config{Retention: 6e6})
	const series = 10
	const perSeries = 100_000
	for e := 0; e < series; e++ {
		labels := map[string]string{"instance": fmt.Sprintf("w-%d", e)}
		for i := 0; i < perSeries; i++ {
			s.Append("c", labels, float64(i)*5, float64(i*(e+1)))
		}
	}
	q, err := ParseQuery("sum(rate(c[300]))")
	if err != nil {
		b.Fatal(err)
	}
	end := float64(perSeries) * 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.EvalRange(q, 0, end, 60)
		if len(res) != 1 {
			b.Fatalf("series: %d", len(res))
		}
	}
}
