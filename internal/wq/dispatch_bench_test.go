package wq

import "testing"

// BenchmarkDispatchDisabledTel pins the uninstrumented dispatch hot path:
// enqueue by power-of-two-choices and popBatch with no dispatchTel
// installed, the state every run is in until Master.Instrument is called.
// The telemetry hooks must stay a nil-pointer load and nil-receiver
// no-ops — BENCH_health.json holds this at zero allocations per op and
// guards its wall clock, so an instrument sneaking an allocation or a
// lock onto the disabled path fails `make check`.
func BenchmarkDispatchDisabledTel(b *testing.B) {
	d := newDispatchTable()
	const batch = 64
	metas := make([]*taskMeta, batch)
	for i := range metas {
		metas[i] = newTaskMeta()
	}
	dst := make([]*taskMeta, batch)
	// Warm the rings to their high-water mark so ring growth settles
	// before the measured steady state.
	for w := 0; w < 4; w++ {
		for _, m := range metas {
			d.enqueue(m)
		}
		for rem := batch; rem > 0; {
			rem -= d.popBatch(uint32(w), dst[:rem])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range metas {
			d.enqueue(m)
		}
		for rem := batch; rem > 0; {
			n := d.popBatch(uint32(i), dst[:rem])
			if n == 0 {
				b.Fatal("queued tasks vanished")
			}
			rem -= n
		}
	}
	b.ReportMetric(batch, "tasks/op")
}
