package retry

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	err := Policy{}.Do(func() error { calls++; return errors.New("boom") })
	if calls != 1 {
		t.Fatalf("attempts = %d, want 1", calls)
	}
	var re *Error
	if !errors.As(err, &re) || re.Attempts != 1 {
		t.Fatalf("err = %v", err)
	}
}

func TestRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}
	calls := 0
	err := p.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	cause := errors.New("bad request")
	calls := 0
	p := Policy{MaxAttempts: 5, Sleep: func(time.Duration) {}}
	err := p.Do(func() error { calls++; return Permanent(cause) })
	if calls != 1 {
		t.Fatalf("permanent error retried: %d attempts", calls)
	}
	// The final error still matches the cause, not just the marker.
	if !errors.Is(err, cause) {
		t.Fatalf("err %v does not match cause", err)
	}
}

func TestIsPermanentThroughWrapping(t *testing.T) {
	err := fmt.Errorf("op failed: %w", Permanent(errors.New("denied")))
	if !IsPermanent(err) {
		t.Fatal("wrapped permanent error not classified")
	}
	if !errors.Is(err, ErrPermanent) {
		t.Fatal("errors.Is(ErrPermanent) failed")
	}
	if IsPermanent(errors.New("plain")) {
		t.Fatal("plain error classified permanent")
	}
}

func TestExhaustionReportsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 4, Sleep: func(time.Duration) {}}
	cause := errors.New("still down")
	err := p.Do(func() error { return cause })
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("err = %T", err)
	}
	if re.Attempts != 4 || !errors.Is(err, cause) {
		t.Fatalf("err = %+v", re)
	}
}

func TestDelayScheduleDeterministic(t *testing.T) {
	p := Policy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 200 * time.Millisecond}
	q := p // identical policy, identical schedule
	for n := 1; n <= 8; n++ {
		if p.Delay(n) != q.Delay(n) {
			t.Fatalf("delay(%d) not deterministic", n)
		}
	}
}

func TestDelayBounded(t *testing.T) {
	p := Policy{MaxAttempts: 20, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond, Jitter: 0.2}
	for n := 1; n <= 20; n++ {
		d := p.Delay(n)
		if d <= 0 {
			t.Fatalf("delay(%d) = %v", n, d)
		}
		if d > time.Duration(float64(100*time.Millisecond)*1.2)+time.Millisecond {
			t.Fatalf("delay(%d) = %v exceeds cap+jitter", n, d)
		}
	}
}
