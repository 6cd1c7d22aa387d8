package simevent

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Errorf("final time = %g", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestEventOrderingProperty(t *testing.T) {
	check := func(delays []uint16) bool {
		s := New()
		var fired []float64
		for _, d := range delays {
			d := float64(d)
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double cancel is a no-op
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var order []int
	var events []Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.Schedule(float64(i), func() { order = append(order, i) }))
	}
	s.Cancel(events[7])
	s.Cancel(events[13])
	s.Run()
	if len(order) != 18 {
		t.Fatalf("fired %d events, want 18", len(order))
	}
	for _, v := range order {
		if v == 7 || v == 13 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestPendingCountsOnlyLiveEvents(t *testing.T) {
	s := New()
	fn := func() {}
	var events []Event
	for i := 0; i < 10; i++ {
		events = append(events, s.Schedule(float64(i+1), fn))
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	s.Cancel(events[3])
	s.Cancel(events[8])
	s.Cancel(events[8]) // double cancel must not double-count
	if s.Pending() != 8 {
		t.Fatalf("Pending after 2 cancels = %d, want 8", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", s.Pending())
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []float64
	s.Schedule(1, func() {
		s.Schedule(1, func() {
			times = append(times, s.Now())
			s.Schedule(0.5, func() { times = append(times, s.Now()) })
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 2 || times[1] != 2.5 {
		t.Fatalf("times = %v", times)
	}
}

func TestZeroDelaySameTime(t *testing.T) {
	s := New()
	var at float64 = -1
	s.Schedule(5, func() {
		s.Schedule(0, func() { at = s.Now() })
	})
	s.Run()
	if at != 5 {
		t.Errorf("zero-delay event at %g", at)
	}
}
