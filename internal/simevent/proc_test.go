package simevent

import (
	"testing"
)

func TestProcWait(t *testing.T) {
	s := New()
	var trace []float64
	s.Go(func(p *Proc) {
		trace = append(trace, p.Now())
		p.Wait(5)
		trace = append(trace, p.Now())
		p.Wait(2.5)
		trace = append(trace, p.Now())
	})
	s.Run()
	want := []float64{0, 5, 7.5}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if s.Procs() != 0 {
		t.Errorf("leaked %d procs", s.Procs())
	}
}

func TestManyProcsInterleave(t *testing.T) {
	s := New()
	const n = 1000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		s.Go(func(p *Proc) {
			p.Wait(float64(i % 17))
			p.Wait(float64(i % 5))
			done++
		})
	}
	s.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	if s.Procs() != 0 {
		t.Errorf("leaked %d procs", s.Procs())
	}
}

func TestWaitUntil(t *testing.T) {
	s := New()
	var at []float64
	s.Go(func(p *Proc) {
		p.WaitUntil(10)
		at = append(at, p.Now())
		p.WaitUntil(5) // already past: no-op
		at = append(at, p.Now())
	})
	s.Run()
	if len(at) != 2 || at[0] != 10 || at[1] != 10 {
		t.Fatalf("at = %v", at)
	}
}

func TestInterruptWait(t *testing.T) {
	s := New()
	var result string
	var victim *Proc
	victim = s.Go(func(p *Proc) {
		if p.Wait(100) {
			result = "completed"
		} else {
			result = "interrupted"
		}
	})
	s.Go(func(p *Proc) {
		p.Wait(3)
		victim.Interrupt()
	})
	s.Run()
	if result != "interrupted" {
		t.Fatalf("result = %q", result)
	}
	if s.Now() >= 100 {
		t.Errorf("clock ran to %g; interrupt did not cancel the timer", s.Now())
	}
}

func TestInterruptOnDeadProcIsNoop(t *testing.T) {
	s := New()
	p := s.Go(func(p *Proc) { p.Wait(1) })
	s.Run()
	if !p.dead {
		t.Fatal("proc not dead after run")
	}
	p.Interrupt() // must not panic or hang
	s.Run()
}

func TestSignalBroadcast(t *testing.T) {
	s := New()
	sig := NewSignal(s)
	woken := 0
	for i := 0; i < 5; i++ {
		s.Go(func(p *Proc) {
			if sig.Await(p) {
				woken++
			}
		})
	}
	s.Go(func(p *Proc) {
		p.Wait(10)
		if waiting(sig) != 5 {
			t.Errorf("waiters = %d", waiting(sig))
		}
		sig.Broadcast()
	})
	s.Run()
	if woken != 5 {
		t.Fatalf("woken = %d", woken)
	}
	if waiting(sig) != 0 {
		t.Errorf("waiters after broadcast = %d", waiting(sig))
	}
}

func TestSignalInterruptedWaiterRemoved(t *testing.T) {
	s := New()
	sig := NewSignal(s)
	var victim *Proc
	interrupted := false
	victim = s.Go(func(p *Proc) {
		if !sig.Await(p) {
			interrupted = true
		}
	})
	s.Go(func(p *Proc) {
		p.Wait(1)
		victim.Interrupt()
		p.Wait(1)
		if waiting(sig) != 0 {
			t.Errorf("interrupted waiter still registered")
		}
		sig.Broadcast() // must not panic on empty list
	})
	s.Run()
	if !interrupted {
		t.Fatal("victim not interrupted")
	}
}

func TestSignalInterruptMiddleWaiterKeepsFIFO(t *testing.T) {
	s := New()
	sig := NewSignal(s)
	const n = 5
	const victimIdx = 2
	procs := make([]*Proc, n)
	var wakeOrder []int
	for i := 0; i < n; i++ {
		i := i
		procs[i] = s.Go(func(p *Proc) {
			p.Wait(float64(i)) // register in index order
			if sig.Await(p) {
				wakeOrder = append(wakeOrder, i)
			}
		})
	}
	s.Go(func(p *Proc) {
		p.Wait(10)
		procs[victimIdx].Interrupt()
		p.Wait(1)
		if waiting(sig) != n-1 {
			t.Errorf("waiters = %d, want %d", waiting(sig), n-1)
		}
		sig.Broadcast()
	})
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(wakeOrder) != len(want) {
		t.Fatalf("wake order %v, want %v", wakeOrder, want)
	}
	for i := range want {
		if wakeOrder[i] != want[i] {
			t.Fatalf("wake order %v, want %v (FIFO with victim removed)", wakeOrder, want)
		}
	}
}

func TestProcDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New()
		var trace []float64
		for i := 0; i < 50; i++ {
			i := i
			s.Go(func(p *Proc) {
				p.Wait(float64(i%7) + 0.5)
				trace = append(trace, p.Now()+float64(i)/1000)
			})
		}
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// waiting counts the procs blocked on sg: an interrupted waiter leaves a
// nil hole in the list until the next Broadcast.
func waiting(sg *Signal) int {
	n := 0
	for _, w := range sg.waiters {
		if w != nil {
			n++
		}
	}
	return n
}
