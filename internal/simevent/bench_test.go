package simevent

import "testing"

// The kernel micro-benchmarks cover the four hot operations every at-scale
// figure run is made of: scheduling a timer, cancelling a timer (one per
// interrupted wait, i.e. per eviction), a full proc suspension round-trip,
// and a signal broadcast (cold-cache slot-mates waking). Steady-state
// Schedule and Cancel must stay at 0 allocs/op.

// BenchmarkSchedule measures steady-state timer scheduling and firing in
// batches, so the event pool and queue storage are warm.
func BenchmarkSchedule(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(float64(i%64), fn)
		if s.Pending() >= 1024 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkCancel measures scheduling plus cancellation of timers that never
// fire — the per-eviction path of the big runs — amid a standing population
// of pending events, which is the shape of an at-scale run (every parked
// worker holds a future wakeup in the queue).
func BenchmarkCancel(b *testing.B) {
	s := New()
	fn := func() {}
	const standing = 4096
	for i := 0; i < standing; i++ {
		s.Schedule(1e9+float64(i), fn) // far-future timers that stay queued
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.Schedule(float64(i%64), fn)
		s.Cancel(ev)
		if i%1024 == 1023 {
			// Discard the cancelled placeholders: they all sort before
			// the standing timers.
			for len(s.events) > 0 && s.events[0].cancelled {
				s.recycle(s.pop())
			}
		}
	}
	b.StopTimer()
	s.Run()
}

// BenchmarkProcSwitch measures a full proc suspension round-trip: two procs
// waiting in lock-step so every Wait crosses a real scheduler handoff (each
// proc's wakeup is never the next pending event while the other is parked
// ahead of it).
func BenchmarkProcSwitch(b *testing.B) {
	s := New()
	n := b.N
	loop := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
	}
	s.Go(loop)
	s.Go(loop)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkTimedSleep measures a lone proc sleeping repeatedly — the pure
// timed sleep with no interruption window that the fast path short-circuits
// past the scheduler handoff.
func BenchmarkTimedSleep(b *testing.B) {
	s := New()
	n := b.N
	s.Go(func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkSignalBroadcast measures waking 128 waiters through a broadcast,
// including proc startup and teardown (the cold-cache wave shape).
func BenchmarkSignalBroadcast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		sig := NewSignal(s)
		woken := 0
		for j := 0; j < 128; j++ {
			s.Go(func(p *Proc) {
				if sig.Await(p) {
					woken++
				}
			})
		}
		s.Go(func(p *Proc) {
			p.Wait(1)
			sig.Broadcast()
		})
		s.Run()
		if woken != 128 {
			b.Fatalf("woken = %d", woken)
		}
	}
}
