package faultinject

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestNewNilAndEmptyPlansDisable(t *testing.T) {
	if New(nil) != nil {
		t.Error("New(nil) != nil")
	}
	if New(&Plan{}) != nil {
		t.Error("New(empty plan) != nil")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if v := in.Decide("c", "op"); v.Action != ActNone {
		t.Errorf("nil Decide = %+v", v)
	}
	if err := in.Check("c", "op"); err != nil {
		t.Errorf("nil Check = %v", err)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if in.Conn("c", c1) != c1 {
		t.Error("nil Conn wrapped the connection")
	}
	if in.Fired("c", "op") != 0 || in.TotalFired() != 0 || in.Invocations("c", "op") != 0 {
		t.Error("nil counters nonzero")
	}
	in.SetSleep(func(time.Duration) {}) // must not panic
}

func TestScheduleAfterEveryTimes(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Component: "c", Op: "op", Action: ActError, After: 2, Every: 3, Times: 2},
	}})
	var fired []int
	for n := 1; n <= 12; n++ {
		if in.Decide("c", "op").Action != ActNone {
			fired = append(fired, n)
		}
	}
	// n > 2, (n-3)%3 == 0 → 3, 6, 9... capped at 2 firings.
	want := []int{3, 6}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired on %v, want %v", fired, want)
	}
	if in.Fired("c", "op") != 2 || in.Invocations("c", "op") != 12 {
		t.Errorf("Fired=%d Invocations=%d", in.Fired("c", "op"), in.Invocations("c", "op"))
	}
}

func TestFirstMatchWins(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Component: "c", Op: "op", Action: ActError},
		{Component: "*", Action: ActDrop},
	}})
	if v := in.Decide("c", "op"); v.Action != ActError {
		t.Errorf("first rule should win, got %q", v.Action)
	}
	if v := in.Decide("c", "other"); v.Action != ActDrop {
		t.Errorf("wildcard should catch unmatched op, got %q", v.Action)
	}
}

func TestWildcardAndEmptyOpMatch(t *testing.T) {
	in := New(&Plan{Rules: []Rule{{Component: "c", Action: ActError}}})
	if in.Decide("c", "anything").Action == ActNone {
		t.Error("empty Op should match any op")
	}
	if in.Decide("other", "anything").Action != ActNone {
		t.Error("component mismatch should not fire")
	}
}

func TestTimesBudgetIsPerKey(t *testing.T) {
	in := New(&Plan{Rules: []Rule{{Component: "*", Action: ActError, Times: 1}}})
	if in.Decide("a", "op").Action == ActNone {
		t.Error("first invocation of key a should fire")
	}
	if in.Decide("a", "op").Action != ActNone {
		t.Error("key a budget exhausted")
	}
	if in.Decide("b", "op").Action == ActNone {
		t.Error("key b has its own budget")
	}
}

// Verdicts must be a pure function of (seed, key, n): interleaving keys
// differently across two injectors must not change any per-key sequence.
func TestVerdictsIndependentOfInterleaving(t *testing.T) {
	plan := &Plan{Seed: 99, Rules: []Rule{
		{Component: "a", Action: ActError, Prob: 0.5},
		{Component: "b", Action: ActDrop, After: 1, Every: 2, Times: 5},
	}}
	const per = 40
	seq := func(in *Injector, interleaved bool) (a, b []Action) {
		if interleaved {
			for i := 0; i < per; i++ {
				a = append(a, in.Decide("a", "op").Action)
				b = append(b, in.Decide("b", "op").Action)
			}
			return a, b
		}
		for i := 0; i < per; i++ {
			a = append(a, in.Decide("a", "op").Action)
		}
		for i := 0; i < per; i++ {
			b = append(b, in.Decide("b", "op").Action)
		}
		return a, b
	}
	a1, b1 := seq(New(plan), false)
	a2, b2 := seq(New(plan), true)
	for i := 0; i < per; i++ {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatalf("invocation %d differs across interleavings: a %q vs %q, b %q vs %q",
				i+1, a1[i], a2[i], b1[i], b2[i])
		}
	}
}

func TestProbGateSeedSensitive(t *testing.T) {
	mask := func(seed uint64) (m uint64) {
		in := New(&Plan{Seed: seed, Rules: []Rule{{Component: "c", Action: ActError, Prob: 0.5}}})
		for n := 0; n < 64; n++ {
			if in.Decide("c", "op").Action != ActNone {
				m |= 1 << n
			}
		}
		return m
	}
	m1, m1b, m2 := mask(1), mask(1), mask(2)
	if m1 != m1b {
		t.Fatalf("same seed produced different gates: %x vs %x", m1, m1b)
	}
	if m1 == m2 {
		t.Fatalf("seeds 1 and 2 produced identical 64-draw gates: %x", m1)
	}
	ones := 0
	for m := m1; m != 0; m &= m - 1 {
		ones++
	}
	if ones < 16 || ones > 48 {
		t.Errorf("prob 0.5 fired %d/64 times — gate badly skewed", ones)
	}
}

func TestCheckVerdicts(t *testing.T) {
	in := New(&Plan{Rules: []Rule{
		{Component: "c", Op: "delay", Action: ActDelay, DelayMS: 7},
		{Component: "c", Op: "err", Action: ActError, Message: "boom"},
		{Component: "c", Op: "kill", Action: ActStallKill, DelayMS: 3},
		{Component: "c", Op: "corrupt", Action: ActCorrupt},
	}})
	var slept time.Duration
	in.SetSleep(func(d time.Duration) { slept += d })

	if err := in.Check("c", "delay"); err != nil || slept != 7*time.Millisecond {
		t.Errorf("delay: err=%v slept=%v", err, slept)
	}
	err := in.Check("c", "err")
	if !errors.Is(err, ErrInjected) {
		t.Errorf("error verdict: %v does not match ErrInjected", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Msg != "boom" || fe.N != 1 {
		t.Errorf("error detail: %+v", fe)
	}
	slept = 0
	if err := in.Check("c", "kill"); !errors.Is(err, ErrInjected) || slept != 3*time.Millisecond {
		t.Errorf("stall-kill: err=%v slept=%v", err, slept)
	}
	if err := in.Check("c", "corrupt"); !errors.Is(err, ErrInjected) {
		t.Errorf("corrupt at a hook point must degrade to an error, got %v", err)
	}
}

// echoPair returns a connected pair with a byte-echo server on one end.
func echoPair(t *testing.T) (client net.Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	go func() {
		buf := make([]byte, 256)
		for {
			n, err := c2.Read(buf)
			if err != nil {
				return
			}
			if _, err := c2.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	return c1
}

func TestConnErrorLeavesConnOpen(t *testing.T) {
	in := New(&Plan{Rules: []Rule{{Component: "c", Op: "write", Action: ActError, Times: 1}}})
	fc := in.Conn("c", echoPair(t))
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write: %v", err)
	}
	// The connection survived the injected error: the next op works.
	if _, err := fc.Write([]byte("y")); err != nil {
		t.Fatalf("second write on surviving conn: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(fc, buf); err != nil || buf[0] != 'y' {
		t.Fatalf("echo after injected error: %q %v", buf, err)
	}
}

func TestConnDropSeversConn(t *testing.T) {
	in := New(&Plan{Rules: []Rule{{Component: "c", Op: "write", Action: ActDrop, Times: 1}}})
	fc := in.Conn("c", echoPair(t))
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped write: %v", err)
	}
	if _, err := fc.Write([]byte("y")); err == nil || errors.Is(err, ErrInjected) {
		t.Fatalf("write after drop should fail organically (conn closed), got %v", err)
	}
}

func TestConnCorruptFlipsFirstByteAndPreservesBuffer(t *testing.T) {
	in := New(&Plan{Rules: []Rule{{Component: "c", Op: "write", Action: ActCorrupt, Times: 1}}})
	fc := in.Conn("c", echoPair(t))
	msg := []byte("hello")
	if _, err := fc.Write(msg); err != nil {
		t.Fatal(err)
	}
	if string(msg) != "hello" {
		t.Errorf("caller's buffer mutated: %q", msg)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'h'^0xff || string(buf[1:]) != "ello" {
		t.Errorf("wire bytes = %q, want first byte flipped", buf)
	}
}

// The disabled fault plane must cost nothing: components hook it
// unconditionally, so the nil fast path has a ≤2 ns/op budget.
func BenchmarkDisabledInjector(b *testing.B) {
	var in *Injector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := in.Check("chirp_client", "read"); err != nil {
			b.Fatal(err)
		}
	}
}
