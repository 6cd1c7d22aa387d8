package telemetry

import (
	"encoding/json"
	"testing"
)

func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }

// BenchmarkTelemetryOverhead is the disabled-path overhead guard: every
// sub-benchmark exercises nil instruments exactly as an uninstrumented
// component would and must stay ≤2 ns/op with 0 allocs/op so telemetry can
// be compiled into every hot path unconditionally (the PR-1 kernel numbers
// in BENCH_kernel.json depend on it).
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("DisabledCounterInc", func(b *testing.B) {
		var c *Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("DisabledGaugeSet", func(b *testing.B) {
		var g *Gauge
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("DisabledHistogramObserve", func(b *testing.B) {
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i))
		}
	})
	b.Run("DisabledStageObserve", func(b *testing.B) {
		var tr *StageHistograms
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Observe(StageSetup, 1)
		}
	})
}

// BenchmarkTelemetryEnabled tracks the live cost of the instruments so a
// regression in the enabled path is visible too.
func BenchmarkTelemetryEnabled(b *testing.B) {
	r := NewRegistry()
	b.Run("CounterInc", func(b *testing.B) {
		c := r.Counter("bench_c_total", "h")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		h := r.Histogram("bench_h_seconds", "h", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i % 1000))
		}
	})
	b.Run("StageObserve", func(b *testing.B) {
		st := NewStageHistograms(r)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Observe(StageExecute, float64(i%1000))
		}
	})
}
