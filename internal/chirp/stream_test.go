package chirp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lobster/internal/retry"
	"lobster/internal/wire"
)

// TestStreamedMatchesBuffered pushes a large, incompressible payload
// through the streaming APIs and asserts every path — PutFileFrom,
// GetFileTo into a file, and the buffered GetFile wrapper — yields
// byte-identical data. The size is odd on purpose: it must not divide
// the chunk size, so partial-chunk handling is exercised.
func TestStreamedMatchesBuffered(t *testing.T) {
	_, addr := startTestServer(t)
	c := mustDial(t, addr)

	payload := make([]byte, 8<<20+12345)
	rand.New(rand.NewSource(7)).Read(payload)

	if err := c.PutFileFrom("/big.dat", bytes.NewReader(payload), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	buffered, err := c.GetFile("/big.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered, payload) {
		t.Fatal("buffered GetFile differs from the streamed source")
	}
	dst := filepath.Join(t.TempDir(), "streamed.dat")
	f, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.GetFileTo("/big.dat", f)
	f.Close()
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("GetFileTo = %d, %v", n, err)
	}
	streamed, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, payload) {
		t.Fatal("streamed GetFileTo differs from buffered GetFile")
	}
}

func TestGetFileEmptyAllocatesNothing(t *testing.T) {
	_, addr := startTestServer(t)
	c := mustDial(t, addr)
	if err := c.PutFile("/empty.dat", nil); err != nil {
		t.Fatal(err)
	}
	data, err := c.GetFile("/empty.dat")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("empty file returned %d bytes", len(data))
	}
	if cap(data) != 0 {
		t.Fatalf("size-0 get allocated a %d-byte payload buffer", cap(data))
	}
}

// TestSinkFailureDrainsAndKeepsConnection: a GetFileTo whose sink dies
// mid-payload must drain the rest of the wire (the protocol has no
// resync point), surface a permanent error, and leave the connection
// usable for the next operation.
func TestSinkFailureDrainsAndKeepsConnection(t *testing.T) {
	_, addr := startTestServer(t)
	c := mustDial(t, addr)

	payload := bytes.Repeat([]byte("drainme!"), 1<<18) // 2 MiB
	if err := c.PutFile("/drain.dat", payload); err != nil {
		t.Fatal(err)
	}
	sink := &failingSink{failAfter: 100}
	n, err := c.GetFileTo("/drain.dat", sink)
	if err == nil {
		t.Fatal("GetFileTo into a failing sink succeeded")
	}
	if !retry.IsPermanent(err) {
		t.Fatalf("sink failure not permanent: %v", err)
	}
	if n != int64(sink.n) {
		t.Fatalf("reported %d bytes written, sink saw %d", n, sink.n)
	}
	if c.conn.Broken() {
		t.Fatal("sink failure poisoned the connection")
	}
	got, err := c.GetFile("/drain.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("connection desynced after sink failure: %v", err)
	}
}

type failingSink struct {
	failAfter int
	n         int
}

func (f *failingSink) Write(p []byte) (int, error) {
	if f.n >= f.failAfter {
		return 0, errors.New("sink is full")
	}
	w := len(p)
	if f.n+w > f.failAfter {
		w = f.failAfter - f.n
	}
	f.n += w
	if w < len(p) {
		return w, errors.New("sink is full")
	}
	return w, nil
}

// TestShortSourcePoisonsConnection: a PutFileFrom source that delivers
// fewer bytes than announced — or none, a nil reader — leaves the payload
// unsendable; the client must poison the connection and mark the error
// permanent so the retry layer does not replay a caller bug.
func TestShortSourcePoisonsConnection(t *testing.T) {
	_, addr := startTestServer(t)
	for _, src := range []io.Reader{bytes.NewReader([]byte("only10byt")), nil} {
		c := mustDial(t, addr)
		err := c.PutFileFrom("/short.dat", src, 4096)
		if err == nil {
			t.Fatalf("short source %T succeeded", src)
		}
		if !retry.IsPermanent(err) {
			t.Fatalf("short source %T: error not permanent: %v", src, err)
		}
		if !c.conn.Broken() {
			t.Fatalf("short source %T left the connection alive with a half-sent payload", src)
		}
	}
}

// TestServerErrorMidPayloadKeepsStreamAligned: a putfile the backend
// rejects after the payload was consumed must produce an in-protocol
// error reply, and the connection must remain usable.
func TestServerErrorMidPayloadKeepsStreamAligned(t *testing.T) {
	_, addr := startTestServer(t)
	c := mustDial(t, addr)

	// Putting onto "/" fails in the backend (the root is a directory),
	// but only after the payload has been spooled.
	err := c.PutFile("/", bytes.Repeat([]byte("x"), 128<<10))
	if err == nil {
		t.Fatal("putfile onto a directory succeeded")
	}
	var se *wire.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want in-protocol ServerError, got %v", err)
	}
	if c.conn.Broken() {
		t.Fatal("in-protocol server error poisoned the connection")
	}
	if err := c.PutFile("/after.dat", []byte("still works")); err != nil {
		t.Fatalf("connection desynced after server error: %v", err)
	}
}

func mustDial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// brokenPipe is the write end of a pipe whose reader takes limit bytes and
// hangs up: a file that fails partway through a payload, as one on a full
// disk does.
func brokenPipe(limit int64) (*os.File, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	go func() {
		io.CopyN(io.Discard, pr, limit)
		pr.Close()
	}()
	return pw, nil
}

// within runs f and fails the test if it has not returned inside d: the
// guard against a transfer that waits for bytes that never come.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

// TestGetFileToFailingFileDoesNotHang: a file sink that fails partway
// through the spliced tail of a payload — the kernel has taken bytes off
// the socket that no count includes — ends the get instead of leaving it
// waiting to drain bytes that never come. The connection is broken and the
// error retryable, or it is usable and the next get is byte-identical.
func TestGetFileToFailingFileDoesNotHang(t *testing.T) {
	_, addr := startTestServer(t)
	c := mustDial(t, addr)
	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(11)).Read(payload)
	if err := c.PutFile("/big.dat", payload); err != nil {
		t.Fatal(err)
	}
	sink, err := brokenPipe(3 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var n int64
	within(t, 10*time.Second, "GetFileTo into a pipe that hung up after 3 MiB", func() {
		n, err = c.GetFileTo("/big.dat", sink)
	})
	if err == nil || n >= int64(len(payload)) {
		t.Fatalf("GetFileTo = %d, %v; want the sink's failure", n, err)
	}
	if c.conn.Broken() {
		if retry.IsPermanent(err) {
			t.Fatalf("a broken connection with a permanent error %v: the pool would not refetch", err)
		}
		return
	}
	var got []byte
	within(t, 10*time.Second, "GetFile after the failed get", func() { got, err = c.GetFile("/big.dat") })
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("connection desynced after the failed get: %d bytes, %v", len(got), err)
	}
}

// pipeSpool spools every put into a pipe that takes limit bytes and hangs
// up, and serves everything else from the LocalFS under it.
type pipeSpool struct {
	*LocalFS
	limit int64
}

func (p pipeSpool) WriteFileFrom(path string, size int64, fill func(io.Writer) error) error {
	pw, err := brokenPipe(p.limit)
	if err != nil {
		return err
	}
	defer pw.Close()
	if err := fill(pw); err != nil {
		return err
	}
	return errors.New("a pipe spool commits nothing")
}

// TestPutIntoFailingSpoolDoesNotHang: a spool file that fails partway
// through the spliced tail of a put ends the put instead of leaving the
// server draining bytes that never come, and the server's one slot is
// free again for the next client.
func TestPutIntoFailingSpoolDoesNotHang(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	known := []byte("served from the LocalFS")
	if err := fs.WriteFile("/known.dat", known); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(pipeSpool{fs, 3 << 20}, "127.0.0.1:0", 1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := mustDial(t, srv.Addr())
	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(12)).Read(payload)
	within(t, 10*time.Second, "PutFile into a spool that hung up after 3 MiB", func() {
		err = c.PutFile("/big.dat", payload)
	})
	if err == nil {
		t.Fatal("PutFile into a failing spool succeeded")
	}
	if !c.conn.Broken() {
		var got []byte
		within(t, 10*time.Second, "GetFile after the failed put", func() { got, err = c.GetFile("/known.dat") })
		if err != nil || !bytes.Equal(got, known) {
			t.Fatalf("connection desynced after the failed put: %q, %v", got, err)
		}
	}
	c.Close()
	next := mustDial(t, srv.Addr())
	var got []byte
	within(t, 10*time.Second, "the next client of a one-slot server", func() { got, err = next.GetFile("/known.dat") })
	if err != nil || !bytes.Equal(got, known) {
		t.Fatalf("next client: %q, %v", got, err)
	}
}
