package chirp

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/wire"
)

// cannedConn is a peer that answers whatever it is asked with the next
// bytes of a fixed reply stream and hangs up when they run out; what it
// is sent collects in sent.
type cannedConn struct {
	net.Conn
	replies *bytes.Reader
	sent    bytes.Buffer
	closed  bool
}

func (c *cannedConn) Read(p []byte) (int, error)  { return c.replies.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error) { return c.sent.Write(p) }
func (c *cannedConn) Close() error                { c.closed = true; return nil }
func (c *cannedConn) SetDeadline(time.Time) error { return nil }

func cannedClient(replies string) (*Client, *cannedConn) {
	conn := &cannedConn{replies: bytes.NewReader([]byte(replies))}
	return &Client{conn: wire.NewConn("chirp", conn, 64<<10, 64<<10), addr: "liar"}, conn
}

// serverConn is the server's end of a connection on which the client
// sends stream: request payloads, and whatever follows them.
func serverConn(stream string) (*peer, *cannedConn) {
	conn := &cannedConn{replies: bytes.NewReader([]byte(stream))}
	return newPeer(wire.NewConn("chirp", conn, 64<<10, 64<<10)), conn
}

// allocatedBy is what f (and anything running beside it) allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGetFileFromALyingServer: the size line reserves GetFile's
// destination and commits none of it. The largest size the protocol
// admits followed by a kilobyte costs about a chunk, a size past
// MaxPayload is refused before anything is read, and a payload that
// breaks off poisons the connection.
func TestGetFileFromALyingServer(t *testing.T) {
	kib := strings.Repeat("x", 1<<10)
	for _, tc := range []struct {
		name, replies, wantErr string
		maxAlloc               uint64 // 0: the announced size is within what GetFile may reserve
	}{
		{"MaxPayload announced, 1 KiB sent", "2147483648\n" + kib, "short read", 4 << 20},
		{"1 TiB announced", "1099511627776\n" + kib, "bad size response", 4 << 20},
		{"32 MiB announced, hang-up after 1 KiB", "33554432\n" + kib, "short read", 0},
	} {
		c, conn := cannedClient(tc.replies)
		var data []byte
		var err error
		got := allocatedBy(func() { data, err = c.GetFile("/f") })
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || data != nil {
			t.Errorf("%s: GetFile = %d bytes, %v; want an error naming %q", tc.name, len(data), err, tc.wantErr)
		}
		if !c.conn.Broken() || !conn.closed {
			t.Errorf("%s: broken %v, closed %v; want the connection poisoned", tc.name, c.conn.Broken(), conn.closed)
		}
		if tc.maxAlloc != 0 && got >= tc.maxAlloc {
			t.Errorf("%s: %d bytes allocated, want under %d", tc.name, got, tc.maxAlloc)
		}
	}

	// An empty file, with the next reply already behind its size line.
	c, _ := cannedClient("0\n0\n")
	data, err := c.GetFile("/f")
	if err != nil || data != nil || c.conn.Broken() {
		t.Errorf("empty file: GetFile = %d bytes (cap %d), %v, broken %v", len(data), cap(data), err, c.conn.Broken())
	}
	if err := c.Unlink("/f"); err != nil {
		t.Errorf("the reply behind an empty payload was not left in place: %v", err)
	}
}

// TestGetFileLandsInOneAllocation: the payload of a healthy get is read
// into one allocation of the announced size, and a get the pool had to
// retry after a mid-payload fault returns the same bytes.
func TestGetFileLandsInOneAllocation(t *testing.T) {
	_, addr := startTestServer(t)
	c := mustDial(t, addr)
	payload := make([]byte, 6<<20+789)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	if err := c.PutFile("/whole.dat", payload); err != nil {
		t.Fatal(err)
	}
	want, err := c.GetFile("/whole.dat")
	if err != nil || !bytes.Equal(want, payload) {
		t.Fatalf("GetFile: %d bytes, %v", len(want), err)
	}
	if cap(want) != len(payload) {
		t.Errorf("capacity %d for a %d-byte file", cap(want), len(payload))
	}

	inj := faultinject.New(&faultinject.Plan{
		Seed: 5,
		Rules: []faultinject.Rule{{
			Component: "chirp_client", Op: "read",
			Action: faultinject.ActDrop, After: 4, Times: 1,
		}},
	})
	pool := NewPool(PoolOptions{Addr: addr, Fault: inj,
		Retry: retry.Policy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
	defer pool.Close()
	got, err := poolGet(pool, "/whole.dat")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("GetFile under a fault: %d bytes, %v, identical %v", len(got), err, bytes.Equal(got, want))
	}
	if inj.TotalFired() != 1 {
		t.Fatalf("fault fired %d times, want once mid-payload", inj.TotalFired())
	}
}

// TestPutFallbackFromALyingClient: a backend without streaming writes
// gets each put whole in memory, and the size a client announces
// reserves that memory without committing it.
func TestPutFallbackFromALyingClient(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{fs: struct{ FileSystem }{fs}}
	put := func(line, payload string) (error, uint64) {
		c, conn := serverConn(payload)
		var err error
		got := allocatedBy(func() { err = s.dispatch([]byte(line), c) })
		c.W.Flush()
		if err != nil && conn.sent.Len() != 0 {
			t.Errorf("%s: failed (%v) after replying %q", line, err, conn.sent.String())
		}
		return err, got
	}
	kib := strings.Repeat("x", 1<<10)
	if err, got := put("putfile /liar.dat 2147483648", kib); !errors.Is(err, wire.ErrHangup) || got >= 4<<20 {
		t.Errorf("MaxPayload announced, 1 KiB sent: %v with %d bytes allocated; want a hang-up under 4 MiB", err, got)
	}
	if err, _ := put("putfile /liar.dat 33554432", kib); !errors.Is(err, wire.ErrHangup) {
		t.Errorf("32 MiB announced, 1 KiB sent: %v; want a hang-up", err)
	}
	if _, err := fs.Stat("/liar.dat"); err == nil {
		t.Error("a short payload reached the backend")
	}
	if err, got := put("putfile /empty.dat 0", "getfile /next\n"); err != nil || got >= 64<<10 {
		t.Errorf("empty put: %v with %d bytes allocated; want no payload buffer", err, got)
	}
	if err, _ := put("putfile /ok.dat 1024", kib+"getfile /next\n"); err != nil {
		t.Fatalf("honest put: %v", err)
	}
	if data, err := fs.ReadFile("/ok.dat"); err != nil || string(data) != kib {
		t.Errorf("honest put stored %d bytes, %v", len(data), err)
	}
}
