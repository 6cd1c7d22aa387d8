package wq

import "testing"

// BenchmarkDispatchDisabledTel pins the uninstrumented dispatch hot path:
// 64 enqueues (one lock each, as Submit and a requeue take) and one
// popBatch of all 64 (one lock) on a table built without a registry, as
// the master of every run without one is. The telemetry hooks must stay
// nil-receiver no-ops — BENCH_health.json holds this at zero allocations
// per op and guards its wall clock, so an instrument sneaking an
// allocation or a lock onto the disabled path fails `make check`.
func BenchmarkDispatchDisabledTel(b *testing.B) {
	d := newDispatchTable()
	const batch = 64
	metas := make([]*taskMeta, batch)
	for i := range metas {
		metas[i] = newTaskMeta()
	}
	dst := make([]*taskMeta, batch)
	// Warm the ring to its high-water mark so ring growth settles before
	// the measured steady state.
	for _, m := range metas {
		d.enqueue(m)
	}
	d.popBatch(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range metas {
			d.enqueue(m)
		}
		if d.popBatch(dst) != batch {
			b.Fatal("queued tasks vanished")
		}
	}
	b.ReportMetric(batch, "tasks/op")
}
