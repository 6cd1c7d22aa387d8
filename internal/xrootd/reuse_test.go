package xrootd

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
)

// reuseFixture is one replica holding one file, and a client whose
// retry budget reports every backoff it is made to spend.
type reuseFixture struct {
	srv     *DataServer
	c       *Client
	content []byte
	sleeps  int
	reg     *telemetry.Registry
}

func newReuseFixture(t *testing.T, inj *faultinject.Injector) *reuseFixture {
	t.Helper()
	fx := &reuseFixture{
		srv:     newServer(t, "T2_US_Reuse"),
		content: bytes.Repeat([]byte("0123456789abcdef"), 4096),
		reg:     telemetry.NewRegistry(),
	}
	red := NewRedirector()
	red.Register("/store/f.root", fx.srv.Store("/store/f.root", fx.content))
	fx.c = &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "reuse",
		Fault: inj, Telemetry: fx.reg,
		Retry: retry.Policy{MaxAttempts: 3, Sleep: func(time.Duration) { fx.sleeps++ }}}
	t.Cleanup(func() { fx.c.Close() })
	return fx
}

// task is what one analysis task does to the federation: open, read
// everything, close.
func (fx *reuseFixture) task(t *testing.T) {
	t.Helper()
	f, err := fx.c.Open("/store/f.root")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got := make([]byte, len(fx.content))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(got) || !bytes.Equal(got, fx.content) {
		t.Fatalf("read %d bytes, err %v, content equal %v", n, err, bytes.Equal(got, fx.content))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func (fx *reuseFixture) conns(outcome string) int64 {
	return fx.reg.CounterVec("lobster_xrootd_client_conns_total", "", "outcome").With(outcome).Value()
}

func (fx *reuseFixture) wantConns(t *testing.T, reused, dialed, stale int64) {
	t.Helper()
	if r, d, s := fx.conns("reused"), fx.conns("dialed"), fx.conns("stale"); r != reused || d != dialed || s != stale {
		t.Errorf("conns reused/dialed/stale = %d/%d/%d, want %d/%d/%d", r, d, s, reused, dialed, stale)
	}
	if fx.sleeps != 0 {
		t.Errorf("%d retry backoffs spent, want none", fx.sleeps)
	}
}

// idle counts the connections the client has parked.
func (c *Client) idleCount() int {
	c.idle.mu.Lock()
	defer c.idle.mu.Unlock()
	n := 0
	for _, l := range c.idle.byAddr {
		n += len(l)
	}
	return n
}

// hangUp closes every connection from the server's side, as a replica
// restarting or reaping idle clients does.
func (s *DataServer) hangUp() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.open {
		c.Close()
	}
}

func TestSecondTaskReusesTheConnection(t *testing.T) {
	fx := newReuseFixture(t, nil)
	for i := 0; i < 5; i++ {
		fx.task(t)
	}
	fx.wantConns(t, 4, 1, 0)
	if n := fx.c.idleCount(); n != 1 {
		t.Errorf("%d connections parked, want 1", n)
	}
	// A server-reported error leaves the connection usable and parked.
	fx.c.Redirector.Register("/store/ghost.root", Replica{Site: "T2_US_Reuse", Addr: fx.srv.Addr()})
	if _, err := fx.c.Open("/store/ghost.root"); err == nil {
		t.Fatal("open of a file the replica does not hold succeeded")
	}
	fx.task(t)
	if d := fx.conns("dialed"); d != 1 {
		t.Errorf("%d dials after an in-protocol error, want still 1", d)
	}
}

func TestIdleConnKilledByPeerFallsBackToDial(t *testing.T) {
	fx := newReuseFixture(t, nil)
	fx.task(t)
	fx.srv.hangUp()
	fx.task(t) // must succeed on a fresh dial, on the first attempt
	fx.wantConns(t, 0, 2, 1)
	fx.task(t)
	fx.wantConns(t, 1, 2, 1)
}

func TestIdleConnKilledByFaultPlaneFallsBackToDial(t *testing.T) {
	// The first task's open is write 1 and its read command write 2;
	// the fault plane cuts the parked connection on write 3, the second
	// task's open.
	inj := faultinject.New(&faultinject.Plan{Rules: []faultinject.Rule{
		{Component: "xrootd_client", Op: "write", Action: faultinject.ActDrop, After: 2, Times: 1},
	}})
	fx := newReuseFixture(t, inj)
	fx.task(t)
	fx.task(t)
	if inj.TotalFired() != 1 {
		t.Fatalf("fault fired %d times, want 1", inj.TotalFired())
	}
	fx.wantConns(t, 0, 2, 1)
}

func TestBrokenFileIsNeverParked(t *testing.T) {
	fx := newReuseFixture(t, nil)
	f, err := fx.c.Open("/store/f.root")
	if err != nil {
		t.Fatal(err)
	}
	fx.srv.hangUp()
	if _, err := f.ReadAt(make([]byte, 16), 0); err == nil {
		t.Fatal("read on a connection the peer closed succeeded")
	}
	if !f.Broken() {
		t.Fatal("transport failure did not mark the file broken")
	}
	f.Close()
	if n := fx.c.idleCount(); n != 0 {
		t.Errorf("%d connections parked after a broken file closed, want 0", n)
	}
	// Closing twice must not park the same connection twice.
	fx.task(t)
	g, err := fx.c.Open("/store/f.root")
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close()
	if n := fx.c.idleCount(); n != 1 {
		t.Errorf("%d connections parked after a double close, want 1", n)
	}
}

func TestIdleListIsBounded(t *testing.T) {
	fx := newReuseFixture(t, nil)
	files := make([]*File, maxIdlePerReplica+3)
	for i := range files {
		f, err := fx.c.Open("/store/f.root")
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	for _, f := range files {
		f.Close()
	}
	if n := fx.c.idleCount(); n != maxIdlePerReplica {
		t.Errorf("%d connections parked, want the bound %d", n, maxIdlePerReplica)
	}
}

// openFDs counts this process's open descriptors (Linux; -1 elsewhere).
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

// TestCloseLeavesNothingBehind: after the client and the server close,
// no serving goroutine and no descriptor of either end remains, parked
// connections included; and a closed client parks nothing new.
func TestCloseLeavesNothingBehind(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	srv, err := NewDataServer("T2_US_Leak", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	red := NewRedirector()
	red.Register("/f", srv.Store("/f", []byte("payload")))
	c := &Client{Redirector: red}
	held := make([]*File, 4)
	for i := range held {
		if held[i], err = c.Open("/f"); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range held[:3] {
		f.Close()
	}
	if n := c.idleCount(); n != 3 {
		t.Fatalf("%d connections parked, want 3", n)
	}
	c.Close()
	held[3].Close() // after Close: hangs up instead of parking
	if n := c.idleCount(); n != 0 {
		t.Errorf("%d connections parked on a closed client", n)
	}
	if _, err := c.Fetch("/f"); err != nil {
		t.Errorf("closed client cannot fetch any more: %v", err)
	}
	srv.Close() // returns only once every serving goroutine has
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Errorf("%d goroutines before, %d after close", goroutines, g)
	}
	if n := openFDs(); n > fds {
		t.Errorf("%d descriptors before, %d after close", fds, n)
	}
}

// TestServerCloseDoesNotWaitForParkedClients: an idle client holding
// parked connections must not stall replica shutdown.
func TestServerCloseDoesNotWaitForParkedClients(t *testing.T) {
	fx := newReuseFixture(t, nil)
	fx.task(t)
	done := make(chan struct{})
	go func() {
		fx.srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("DataServer.Close blocked on a parked client connection")
	}
}

func TestConnCountersCostNothingWithoutRegistry(t *testing.T) {
	c := &Client{}
	if n := testing.AllocsPerRun(100, func() {
		idle := c.conns()
		idle.reused.Inc()
		idle.dialed.Inc()
		idle.stale.Inc()
	}); n != 0 {
		t.Errorf("nil-registry connection counters: %v allocs/op, want 0", n)
	}
}
