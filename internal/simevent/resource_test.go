package simevent

import (
	"math"
	"testing"
)

func TestResourceMutualExclusion(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	holding := 0
	maxHolding := 0
	for i := 0; i < 10; i++ {
		s.Go(func(p *Proc) {
			r.Acquire(p)
			holding++
			if holding > maxHolding {
				maxHolding = holding
			}
			p.Wait(1)
			holding--
			r.Release()
		})
	}
	s.Run()
	if maxHolding != 1 {
		t.Fatalf("max simultaneous holders = %d", maxHolding)
	}
	if s.Now() != 10 {
		t.Errorf("serialised run ended at %g, want 10", s.Now())
	}
}

func TestResourceCapacityN(t *testing.T) {
	s := New()
	r := NewResource(s, 4)
	maxHolding, holding := 0, 0
	for i := 0; i < 16; i++ {
		s.Go(func(p *Proc) {
			r.Acquire(p)
			holding++
			if holding > maxHolding {
				maxHolding = holding
			}
			p.Wait(2)
			holding--
			r.Release()
		})
	}
	s.Run()
	if maxHolding != 4 {
		t.Fatalf("max holders = %d, want 4", maxHolding)
	}
	if s.Now() != 8 { // 16 procs / 4 slots * 2s
		t.Errorf("run ended at %g, want 8", s.Now())
	}
}

func TestResourceFIFO(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		s.Go(func(p *Proc) {
			p.Wait(float64(i) * 0.001) // stagger arrival in index order
			r.Acquire(p)
			order = append(order, i)
			p.Wait(1)
			r.Release()
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grants out of FIFO order: %v", order)
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Release()
}

func TestResourceInterruptedWaiter(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var victim *Proc
	gotUnit := true
	s.Go(func(p *Proc) {
		r.Acquire(p)
		p.Wait(100)
		r.Release()
	})
	victim = s.Go(func(p *Proc) {
		p.Wait(1)
		gotUnit = r.Acquire(p)
		if gotUnit {
			r.Release()
		}
	})
	s.Go(func(p *Proc) {
		p.Wait(5)
		victim.Interrupt()
	})
	s.Run()
	if gotUnit {
		t.Fatal("interrupted acquire reported success")
	}
	if r.inUse != 0 {
		t.Errorf("units leaked: inUse = %d", r.inUse)
	}
}

func TestLinkSingleTransfer(t *testing.T) {
	s := New()
	l := NewLink(s, 100) // 100 B/s
	var done float64
	s.Go(func(p *Proc) {
		l.Transfer(p, 500)
		done = p.Now()
	})
	s.Run()
	if done != 5 {
		t.Fatalf("500 B at 100 B/s finished at %g, want 5", done)
	}
	if math.Abs(l.BytesMoved()-500) > 1e-6 {
		t.Errorf("bytes moved = %g", l.BytesMoved())
	}
}

func TestLinkProcessorSharing(t *testing.T) {
	s := New()
	l := NewLink(s, 100)
	var t1, t2 float64
	s.Go(func(p *Proc) {
		l.Transfer(p, 500)
		t1 = p.Now()
	})
	s.Go(func(p *Proc) {
		l.Transfer(p, 500)
		t2 = p.Now()
	})
	s.Run()
	// Two equal transfers sharing 100 B/s: both finish at t=10.
	if math.Abs(t1-10) > 1e-9 || math.Abs(t2-10) > 1e-9 {
		t.Fatalf("finish times %g, %g, want 10, 10", t1, t2)
	}
}

func TestLinkLateJoiner(t *testing.T) {
	s := New()
	l := NewLink(s, 100)
	var tA, tB float64
	s.Go(func(p *Proc) {
		l.Transfer(p, 1000)
		tA = p.Now()
	})
	s.Go(func(p *Proc) {
		p.Wait(5)
		l.Transfer(p, 250)
		tB = p.Now()
	})
	s.Run()
	// A alone 0-5 moves 500B; then shares: A needs 500 more, B needs 250 at
	// 50 B/s each → B done at t=10; A then runs alone, 250 left at 100 B/s →
	// done t=12.5.
	if math.Abs(tB-10) > 1e-9 {
		t.Errorf("tB = %g, want 10", tB)
	}
	if math.Abs(tA-12.5) > 1e-9 {
		t.Errorf("tA = %g, want 12.5", tA)
	}
}

func TestLinkZeroBytes(t *testing.T) {
	s := New()
	l := NewLink(s, 100)
	ok := false
	s.Go(func(p *Proc) {
		ok = l.Transfer(p, 0)
	})
	s.Run()
	if !ok {
		t.Fatal("zero-byte transfer failed")
	}
	if s.Now() != 0 {
		t.Errorf("zero-byte transfer advanced time to %g", s.Now())
	}
}

func TestLinkInterruptedTransfer(t *testing.T) {
	s := New()
	l := NewLink(s, 100)
	var victim *Proc
	ok := true
	victim = s.Go(func(p *Proc) {
		ok = l.Transfer(p, 10000)
	})
	s.Go(func(p *Proc) {
		p.Wait(3)
		victim.Interrupt()
	})
	s.Run()
	if ok {
		t.Fatal("interrupted transfer reported success")
	}
	if l.h.Len() != 0 {
		t.Errorf("abandoned transfer still active")
	}
	if s.Now() >= 100 {
		t.Errorf("sim ran to completion time %g despite interrupt", s.Now())
	}
}
