package chirp

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/wire"
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
	var se *wire.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *wire.ServerError", err, err)
	}
	if !retry.IsPermanent(err) {
		t.Error("server error not classified permanent")
	}
	if !errors.Is(err, wire.ErrNotExist) {
		t.Errorf("missing-file error %q does not match ErrNotExist", err)
	}
	// The connection survives a server-reported error: the server
	// answered in protocol, so the stream is still synchronised.
	if c.conn.Broken() {
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
	if !errors.Is(err, wire.ErrNotExist) {
		t.Fatalf("unlink of missing file: err = %v, want ErrNotExist match", err)
	}
	// A generic server error must NOT match ErrNotExist.
	other := &wire.ServerError{Proto: "chirp", Msg: "disk quota exceeded"}
	if errors.Is(other, wire.ErrNotExist) {
		t.Error("quota error matched ErrNotExist")
	}
	if !retry.IsPermanent(other) {
		t.Error("quota error lost its permanent classification")
	}
}

// TestProtocolErrorPermanentAndBreaksConn: a reply that is neither an
// answer nor a "-1" line is permanent and leaves the connection broken.
func TestProtocolErrorPermanentAndBreaksConn(t *testing.T) {
	c, conn := cannedClient("-15\n")
	_, err := c.GetFile("/f")
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || !retry.IsPermanent(err) {
		t.Errorf("size line -15: %v; want a permanent protocol error", err)
	}
	if !c.conn.Broken() || !conn.closed {
		t.Errorf("size line -15: broken %v, closed %v; want the connection poisoned", c.conn.Broken(), conn.closed)
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
	c, err := connect(addr, time.Second, inj, nil, nil)
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
	if !c.conn.Broken() {
		t.Fatal("transport failure did not mark the connection broken")
	}
	// Operations on a broken client short-circuit, retryable: a fresh
	// dial would succeed.
	if _, err := c.GetFile("/f.dat"); err == nil || retry.IsPermanent(err) {
		t.Fatalf("operation on broken client = %v, want a retryable error", err)
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
		Addr: addr,
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
	data, err := poolGet(d, "/r.dat")
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
		Addr:  addr,
		Retry: retry.Policy{MaxAttempts: 5, Sleep: func(time.Duration) {}},
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
	if !errors.Is(err, wire.ErrNotExist) {
		t.Fatalf("classification lost through retry wrapper: %v", err)
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
	se := &wire.ServerError{Proto: "chirp", Msg: rerr.Error()}
	if !errors.Is(se, wire.ErrNotExist) {
		t.Fatalf("LocalFS missing-file text %q not recognised as ErrNotExist", rerr)
	}
	_ = os.MkdirAll(filepath.Join(dir, "sub"), 0o755)
}
