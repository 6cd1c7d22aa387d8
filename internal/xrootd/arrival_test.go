package xrootd

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
)

// cannedConn is a replica that answers whatever it is asked with the
// next bytes of a fixed reply stream and hangs up when they run out.
type cannedConn struct {
	net.Conn
	replies *bytes.Reader
	closed  bool
}

func (c *cannedConn) Read(p []byte) (int, error)  { return c.replies.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *cannedConn) Close() error                { c.closed = true; return nil }
func (c *cannedConn) SetDeadline(time.Time) error { return nil }

// cannedClient is a client whose one replica of /f is a cannedConn
// parked where an earlier task would have left a healthy connection.
// The replica's address cannot be dialled, so a hang-up is final.
func cannedClient(replies string) (*Client, *cannedConn) {
	conn := &cannedConn{replies: bytes.NewReader([]byte(replies))}
	red := NewRedirector()
	red.Register("/f", Replica{Site: "T2_LIAR", Addr: "liar"})
	c := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "c"}
	c.conns().park("liar", &wire{conn: conn,
		r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriterSize(conn, 8<<10)})
	return c, conn
}

// allocatedBy is what f (and anything running beside it) allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFetchFromALyingReplica: the size a replica announces reserves
// Fetch's destination and commits none of it. A replica that claims a
// terabyte and sends a kilobyte costs about a chunk; one that breaks off
// inside a read's payload fails the fetch and is never parked; an empty
// file costs no payload allocation and leaves the connection usable.
func TestFetchFromALyingReplica(t *testing.T) {
	kib := strings.Repeat("x", 1<<10)
	for _, tc := range []struct {
		name, replies, wantErr string
		maxAlloc               uint64 // 0: the announced size is within what Fetch may reserve
	}{
		{"1 TiB announced, 1 KiB sent", "1099511627776\n1024\n" + kib, "reading response", 4 << 20},
		{"32 MiB announced, hang-up 1 KiB into a read", "33554432\n1048576\n" + kib, "short payload", 0},
		{"a read answered past what was asked", "33554432\n1048577\n" + kib, "over-answered", 0},
	} {
		c, conn := cannedClient(tc.replies)
		var data []byte
		var err error
		got := allocatedBy(func() { data, err = c.Fetch("/f") })
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || data != nil {
			t.Errorf("%s: Fetch = %d bytes, %v; want an error naming %q", tc.name, len(data), err, tc.wantErr)
		}
		if !conn.closed || len(c.idle.byAddr["liar"]) != 0 {
			t.Errorf("%s: connection closed %v, parked %d; want it broken and never parked",
				tc.name, conn.closed, len(c.idle.byAddr["liar"]))
		}
		if tc.maxAlloc != 0 && got >= tc.maxAlloc {
			t.Errorf("%s: %d bytes allocated, want under %d", tc.name, got, tc.maxAlloc)
		}
	}

	c, conn := cannedClient("0\n")
	data, err := c.Fetch("/f")
	if err != nil || data != nil {
		t.Errorf("empty file: Fetch = %d bytes (cap %d), %v; want nil, nil", len(data), cap(data), err)
	}
	if conn.closed || len(c.idle.byAddr["liar"]) != 1 {
		t.Errorf("empty file: connection closed %v, parked %d; want it parked for the next open",
			conn.closed, len(c.idle.byAddr["liar"]))
	}
}

// TestFetchResumesIntoTheSameBuffer: a transport fault mid-fetch reopens
// the file and the rest lands behind what the first attempt delivered —
// the bytes of a fault-free fetch, in the one allocation the announced
// size reserved.
func TestFetchResumesIntoTheSameBuffer(t *testing.T) {
	srv := newServer(t, "T2_RESUMES")
	red := NewRedirector()
	content := make([]byte, 5<<20+4321)
	for i := range content {
		content[i] = byte(i * 7)
	}
	red.Register("/big", srv.Store("/big", content))
	clean := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "c"}
	defer clean.Close()
	want, err := clean.Fetch("/big")
	if err != nil || !bytes.Equal(want, content) {
		t.Fatalf("fault-free fetch: %d bytes, %v", len(want), err)
	}

	// The drop lands past the open and the first chunks' replies.
	inj := faultinject.New(&faultinject.Plan{
		Seed: 12,
		Rules: []faultinject.Rule{{
			Component: "xrootd_client", Op: "read",
			Action: faultinject.ActDrop, After: 8, Times: 1,
		}},
	})
	sleeps := 0
	c := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "c", Fault: inj,
		Retry: retry.Policy{MaxAttempts: 4, Sleep: func(time.Duration) { sleeps++ }}}
	defer c.Close()
	got, err := c.Fetch("/big")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fetch under a fault: %d bytes, %v, identical %v", len(got), err, bytes.Equal(got, want))
	}
	if inj.TotalFired() != 1 || sleeps != 1 {
		t.Fatalf("fault fired %d times, %d backoffs; want one mid-fetch fault, one resume", inj.TotalFired(), sleeps)
	}
	if cap(got) != len(content) {
		t.Errorf("capacity %d for %d bytes: the resume did not land in the reserved buffer", cap(got), len(content))
	}
	if vol := c.Dashboard.Volume("c"); vol != int64(len(content)) {
		t.Errorf("dashboard saw %d bytes for a %d-byte file: the resume re-fetched delivered bytes", vol, len(content))
	}
}
