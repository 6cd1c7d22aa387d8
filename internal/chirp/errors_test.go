package chirp

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
)

func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(fs, "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

func TestServerErrorClassification(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.GetFile("/missing.dat")
	if err == nil {
		t.Fatal("GetFile(missing) succeeded")
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *ServerError", err, err)
	}
	if !errors.Is(err, ErrServer) {
		t.Error("server error does not match ErrServer")
	}
	if !errors.Is(err, retry.ErrPermanent) {
		t.Error("server error not classified permanent")
	}
	if !errors.Is(err, ErrNotExist) {
		t.Errorf("missing-file error %q does not match ErrNotExist", err)
	}
	if IsRetryable(err) {
		t.Error("server error classified retryable")
	}
	// The connection survives a server-reported error: the server
	// answered in protocol, so the stream is still synchronised.
	if c.Broken() {
		t.Error("connection marked broken after in-protocol error")
	}
	if err := c.PutFile("/after.dat", []byte("ok")); err != nil {
		t.Errorf("operation after server error failed: %v", err)
	}
}

func TestUnlinkNotExistVsOtherErrors(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Unlink("/never-created.dat")
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("unlink of missing file: err = %v, want ErrNotExist match", err)
	}
	// A generic server error must NOT match ErrNotExist.
	other := &ServerError{Op: "putfile", Msg: "disk quota exceeded"}
	if errors.Is(other, ErrNotExist) {
		t.Error("quota error matched ErrNotExist")
	}
	if !errors.Is(other, ErrServer) || !errors.Is(other, retry.ErrPermanent) {
		t.Error("quota error lost its server/permanent classification")
	}
}

func TestProtocolErrorPermanentAndBreaksConn(t *testing.T) {
	pe := &ProtocolError{Op: "getfile", Msg: "bad size response"}
	if !errors.Is(pe, ErrProtocol) || !errors.Is(pe, retry.ErrPermanent) {
		t.Error("protocol error classification wrong")
	}
	if IsRetryable(pe) {
		t.Error("protocol error classified retryable")
	}
}

func TestTransportErrorClosesConnAndIsRetryable(t *testing.T) {
	_, addr := startTestServer(t)

	// Inject a connection drop on the client's 2nd read: the first
	// GetFile's response read dies mid-operation.
	inj := faultinject.New(&faultinject.Plan{
		Seed: 1,
		Rules: []faultinject.Rule{{
			Component: "chirp_client", Op: "read",
			Action: faultinject.ActDrop, Times: 1,
		}},
	})
	c, err := DialOpts(addr, ClientOptions{DialTimeout: time.Second, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutFile("/f.dat", []byte("payload")); err == nil {
		// The drop may land on put's status read or the next get;
		// either way the connection must end up broken below.
		if _, err := c.GetFile("/f.dat"); err == nil {
			t.Fatal("no operation failed despite injected drop")
		}
	}
	if !c.Broken() {
		t.Fatal("transport failure did not mark the connection broken")
	}
	// Operations on a broken client short-circuit.
	if _, err := c.GetFile("/f.dat"); err == nil {
		t.Fatal("operation on broken client succeeded")
	}
	// Injected faults are retryable — a fresh dial would succeed.
	_, err = c.GetFile("/f.dat")
	if !IsRetryable(err) && !errors.Is(err, errBroken) {
		t.Fatalf("broken-conn error classified permanent: %v", err)
	}
	c.Close() // must be a no-op, not a double close panic
}

func TestPoolRetriesTransportFaults(t *testing.T) {
	_, addr := startTestServer(t)

	// Drop the connection on the first two client reads; the third
	// attempt runs clean.
	inj := faultinject.New(&faultinject.Plan{
		Seed: 2,
		Rules: []faultinject.Rule{{
			Component: "chirp_client", Op: "read",
			Action: faultinject.ActDrop, Times: 2,
		}},
	})
	d := NewPool(PoolOptions{
		Addr:        addr,
		DialTimeout: time.Second,
		Retry: retry.Policy{
			MaxAttempts: 5,
			Sleep:       func(time.Duration) {},
		},
		Fault: inj,
	})
	defer d.Close()
	if err := d.PutFile("/r.dat", []byte("retried")); err != nil {
		t.Fatalf("PutFile with retries: %v", err)
	}
	data, err := d.GetFile("/r.dat")
	if err != nil || string(data) != "retried" {
		t.Fatalf("GetFile = %q, %v", data, err)
	}
	if inj.TotalFired() == 0 {
		t.Fatal("injector never fired — test exercised nothing")
	}
}

func TestPoolDoesNotRetryServerErrors(t *testing.T) {
	_, addr := startTestServer(t)
	attempts := 0
	d := NewPool(PoolOptions{
		Addr:        addr,
		DialTimeout: time.Second,
		Retry:       retry.Policy{MaxAttempts: 5, Sleep: func(time.Duration) {}},
	})
	defer d.Close()
	err := d.Do(func(c *Client) error {
		attempts++
		_, err := c.GetFile("/nope.dat")
		return err
	})
	if err == nil {
		t.Fatal("GetFile(missing) succeeded")
	}
	if attempts != 1 {
		t.Fatalf("server error retried: %d attempts", attempts)
	}
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("classification lost through retry wrapper: %v", err)
	}
}

func TestPoolUnlinkIdempotentAcrossRetry(t *testing.T) {
	_, addr := startTestServer(t)

	// Seed a file, then drop the connection exactly once on the client's
	// response read: the server processes the unlink, the client never
	// sees the "0" and retries — the retry's "no such file" must count
	// as success.
	seed := NewPool(PoolOptions{Addr: addr, DialTimeout: time.Second})
	defer seed.Close()
	if err := seed.PutFile("/victim.dat", []byte("x")); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(&faultinject.Plan{
		Seed: 3,
		Rules: []faultinject.Rule{{
			Component: "chirp_client", Op: "read",
			Action: faultinject.ActDrop, Times: 1,
		}},
	})
	d := NewPool(PoolOptions{
		Addr:        addr,
		DialTimeout: time.Second,
		Retry:       retry.Policy{MaxAttempts: 4, Sleep: func(time.Duration) {}},
		Fault:       inj,
	})
	defer d.Close()
	if err := d.Unlink("/victim.dat"); err != nil {
		t.Fatalf("retried unlink not idempotent: %v", err)
	}
	if inj.TotalFired() != 1 {
		t.Fatalf("fired = %d, want 1", inj.TotalFired())
	}
}

func TestOpTimeoutBreaksStalledRead(t *testing.T) {
	_, addr := startTestServer(t)

	// Stall the client's first read far past the op timeout; the
	// deadline must fire, fail the op, and mark the conn broken.
	inj := faultinject.New(&faultinject.Plan{
		Seed: 4,
		Rules: []faultinject.Rule{{
			Component: "chirp_client", Op: "read",
			Action: faultinject.ActDelay, DelayMS: 10_000, Times: 1,
		}},
	})
	slept := make(chan time.Duration, 1)
	inj.SetSleep(func(d time.Duration) {
		// Record instead of sleeping: the deadline check happens on the
		// real read that follows, which hits the already-expired deadline.
		slept <- d
		time.Sleep(60 * time.Millisecond)
	})
	c, err := DialOpts(addr, ClientOptions{
		DialTimeout: time.Second,
		OpTimeout:   30 * time.Millisecond,
		Fault:       inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.GetFile("/anything.dat")
	if err == nil {
		t.Fatal("stalled GetFile succeeded")
	}
	if !c.Broken() {
		t.Fatal("timed-out connection not marked broken")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("op timeout did not bound the stall: %v", elapsed)
	}
	select {
	case <-slept:
	default:
		t.Fatal("injected delay never fired")
	}
}

func TestLocalFSErrorTextMatchesNotExist(t *testing.T) {
	// The ErrNotExist text matching must hold for what LocalFS actually
	// produces — guard against a backend changing its message.
	dir := t.TempDir()
	fs, err := NewLocalFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := fs.ReadFile("/gone.dat")
	if rerr == nil {
		t.Skip("backend created file out of nowhere")
	}
	se := &ServerError{Op: "getfile", Msg: rerr.Error()}
	if !se.NotExist() {
		t.Fatalf("LocalFS missing-file text %q not recognised by NotExist", rerr)
	}
	_ = os.MkdirAll(filepath.Join(dir, "sub"), 0o755)
}
