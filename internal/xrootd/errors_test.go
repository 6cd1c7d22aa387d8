package xrootd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/wire"
)

func TestServerErrorClassification(t *testing.T) {
	srv := newServer(t, "T2_CLASSIFY")
	red := NewRedirector()
	red.Register("/f", mustStore(srv, "/f", []byte("x")))
	srv.SetDown(true)

	c := &Client{Redirector: red, Consumer: "c"}
	_, err := c.Open("/f")
	if err == nil {
		t.Fatal("open succeeded with replica down")
	}
	var se *wire.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *wire.ServerError in chain", err, err)
	}
	// All replicas failed permanently → the aggregate is permanent.
	if !retry.IsPermanent(err) {
		t.Error("all-permanent pass not classified permanent")
	}
}

// TestOpenRepliesOutOfProtocol: an open is answered with a size or a
// "-1" line and nothing else. A negative size, a "-1" that is only the
// start of a field, or a size with a trailing field is a protocol error
// on a connection that is never parked again; a real "-1" line is the
// replica's error on a connection that stays usable.
func TestOpenRepliesOutOfProtocol(t *testing.T) {
	for _, reply := range []string{"-7\n", "-15\n", "-100 oops\n", "5 trailing\n"} {
		c, conn := cannedClient(reply)
		f, err := c.Open("/f")
		var pe *wire.ProtocolError
		if !errors.As(err, &pe) || f != nil {
			t.Errorf("open answered %q: file %v, err %v; want a protocol error", reply, f, err)
		}
		if !conn.closed || c.conns().Parked() != 0 {
			t.Errorf("open answered %q: closed %v, parked %d; want the connection broken", reply, conn.closed, c.conns().Parked())
		}
	}
	c, conn := cannedClient("-1 no such file /f\n")
	_, err := c.Open("/f")
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Msg != "no such file /f" || !errors.Is(err, wire.ErrNotExist) {
		t.Errorf("open answered -1: err %v; want the replica's missing-file error", err)
	}
	if conn.closed || c.conns().Parked() != 1 {
		t.Errorf("open answered -1: closed %v, parked %d; want the connection kept", conn.closed, c.conns().Parked())
	}
}

func TestUnknownLFNPermanent(t *testing.T) {
	c := &Client{Redirector: NewRedirector(), Consumer: "c",
		Retry: retry.Policy{MaxAttempts: 5, Sleep: func(time.Duration) {}}}
	start := time.Now()
	_, err := c.Open("/no/such/lfn")
	if err == nil {
		t.Fatal("open of unknown LFN succeeded")
	}
	if !retry.IsPermanent(err) {
		t.Error("unknown-LFN error not permanent")
	}
	var re *retry.Error
	if errors.As(err, &re) && re.Attempts != 1 {
		t.Errorf("unknown LFN retried %d times", re.Attempts)
	}
	if time.Since(start) > time.Second {
		t.Error("permanent error burned backoff time")
	}
}

func TestTransportFaultMarksFileBroken(t *testing.T) {
	srv := newServer(t, "T2_FAULTY")
	red := NewRedirector()
	content := bytes.Repeat([]byte("data"), 1000)
	red.Register("/f", mustStore(srv, "/f", content))

	// Let the open succeed (reads 1–2: open request's response), then
	// drop the connection on a later read.
	inj := faultinject.New(&faultinject.Plan{
		Seed: 11,
		Rules: []faultinject.Rule{{
			Component: "xrootd_client", Op: "read",
			Action: faultinject.ActDrop, After: 1, Times: 1,
		}},
	})
	c := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "c", Fault: inj}
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(content))
	if _, err := f.ReadAt(buf, 0); err == nil {
		t.Fatal("ReadAt succeeded despite injected drop")
	}
	if !f.conn.Broken() {
		t.Fatal("transport failure did not mark the file broken")
	}
	if _, err := f.ReadAt(buf, 0); err == nil || retry.IsPermanent(err) {
		t.Fatalf("broken file op = %v, want a retryable error", err)
	}
	f.Close() // no-op on broken file, must not panic
}

func TestFetchRetriesTransportFaults(t *testing.T) {
	srv := newServer(t, "T2_RECOVERS")
	red := NewRedirector()
	content := bytes.Repeat([]byte("payload!"), 64<<10/8)
	red.Register("/big", mustStore(srv, "/big", content))

	// Kill the first fetch attempt mid-stream; the retry runs clean.
	inj := faultinject.New(&faultinject.Plan{
		Seed: 12,
		Rules: []faultinject.Rule{{
			Component: "xrootd_client", Op: "read",
			Action: faultinject.ActDrop, After: 2, Times: 1,
		}},
	})
	c := &Client{
		Redirector: red, Dashboard: NewDashboard(), Consumer: "c",
		Fault: inj,
		Retry: retry.Policy{MaxAttempts: 4, Sleep: func(time.Duration) {}},
	}
	got, err := c.Fetch("/big")
	if err != nil {
		t.Fatalf("fetch with retries: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("fetched content mismatch after retry")
	}
	if inj.TotalFired() != 1 {
		t.Fatalf("fired = %d, want 1", inj.TotalFired())
	}
}

func TestProtocolErrorClassification(t *testing.T) {
	pe := &wire.ProtocolError{Proto: "xrootd", Msg: "bad response"}
	if !retry.IsPermanent(pe) || pe.Error() != "xrootd: protocol error: bad response" {
		t.Errorf("protocol error %q: permanent %v", pe, retry.IsPermanent(pe))
	}
	se := &wire.ServerError{Proto: "xrootd", Msg: "boom"}
	if !retry.IsPermanent(se) || errors.Is(se, wire.ErrNotExist) {
		t.Error("server error: want permanent, and not a missing file")
	}
	if retry.IsPermanent(errors.New("connection reset")) {
		t.Error("plain transport error classified permanent")
	}
}
