package chirp

import (
	"bytes"
	"errors"
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
// fewer bytes than announced leaves the payload unsendable; the client
// must poison the connection and mark the error permanent so the retry
// layer does not replay a caller bug.
func TestShortSourcePoisonsConnection(t *testing.T) {
	_, addr := startTestServer(t)
	c := mustDial(t, addr)

	err := c.PutFileFrom("/short.dat", bytes.NewReader([]byte("only10byt")), 4096)
	if err == nil {
		t.Fatal("short source succeeded")
	}
	if !retry.IsPermanent(err) {
		t.Fatalf("short source error not permanent: %v", err)
	}
	if !c.conn.Broken() {
		t.Fatal("short source left the connection alive with a half-sent payload")
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
