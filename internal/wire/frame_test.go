package wire

import (
	"bytes"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lobster/internal/retry"
)

// loopConn reads back what was written to it: both ends of a connection
// in one, for a frame's round trip on one goroutine.
type loopConn struct {
	net.Conn
	buf    bytes.Buffer
	closed bool
}

func (c *loopConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *loopConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *loopConn) Close() error                { c.closed = true; return nil }

type point struct {
	X, Y int
}

// TestFrameRoundTrip pins the frame's bytes — the size line, then the
// JSON with no newline after it — and that once the scratch has grown a
// frame costs no allocation either way.
func TestFrameRoundTrip(t *testing.T) {
	nc := &loopConn{}
	c := NewConn("test", nc, 64, 64)
	if err := c.SendFrame(&point{X: 1, Y: -2}); err != nil {
		t.Fatal(err)
	}
	if got := nc.buf.String(); got != "14\n{\"X\":1,\"Y\":-2}" {
		t.Fatalf("frame bytes %q", got)
	}
	var p point
	if err := c.ReadFrame(14, &p); err != nil || p != (point{1, -2}) {
		t.Fatalf("read back %+v, %v", p, err)
	}
	in, out := point{X: 7, Y: math.MaxInt32}, point{}
	if n := testing.AllocsPerRun(100, func() {
		c.SendFrame(&in)
		c.ReadFrame(1<<10, &out)
	}); n != 0 || out != in || c.Broken() {
		t.Errorf("round trip: %v allocs/op, read %+v, broken %v; want 0 allocs and %+v", n, out, c.Broken(), in)
	}
}

// TestReadFrameOutOfProtocol: every way a peer can send something other
// than one frame is a protocol error that hangs up — and one that is
// permanent under retry, since the peer did answer.
func TestReadFrameOutOfProtocol(t *testing.T) {
	for _, tc := range []struct{ name, stream string }{
		{"a line that is not a size", `{"X":1}` + "\n"},
		{"a signed size", "+7\n{\"X\":1}"},
		{"a size over the bound", "65\n{\"X\":1}"},
		{"an error line", "-1 worker error\n"},
		{"a size line that outgrows the reader", strings.Repeat("1", 100)},
		{"a body the frame cuts short", "4\n{\"X\":1}"},
		{"a body the stream cuts short", "20\n{\"X\":1}"},
		{"an empty body", "0\n"},
		{"bytes after the object", "10\n{\"X\":1} {}"},
		{"whitespace after the object", "8\n{\"X\":1}\n"},
		{"not JSON", "7\nX=1 Y=2"},
		{"the wrong JSON type", "5\n[1,2]"},
	} {
		nc := &loopConn{}
		nc.buf.WriteString(tc.stream)
		c := NewConn("test", nc, 32, 64)
		var p point
		err := c.ReadFrame(64, &p)
		var pe *ProtocolError
		if !errors.As(err, &pe) || !c.Broken() || !nc.closed || !retry.IsPermanent(err) {
			t.Errorf("%s (%q): %v, broken %v; want a protocol error that hangs up", tc.name, tc.stream, err, c.Broken())
		}
		if err := c.ReadFrame(64, &p); err == nil || errors.As(err, &pe) {
			t.Errorf("%s: a broken connection read on: %v", tc.name, err)
		}
	}
}

// TestFrameConcurrentHangup is wq's use of a Conn: a receive loop and a
// send loop on each end at once, and a third goroutine that hangs one end
// up mid-stream. Every loop ends on an error and both ends are broken.
// Run it under -race.
func TestFrameConcurrentHangup(t *testing.T) {
	na, nb := net.Pipe()
	a, b := NewConn("test", na, 64, 64), NewConn("test", nb, 64, 64)
	var loops sync.WaitGroup
	var read atomic.Int64
	for _, c := range []*Conn{a, b} {
		loops.Add(2)
		go func() {
			defer loops.Done()
			for i := 0; c.SendFrame(&point{X: i}) == nil; i++ {
			}
		}()
		go func() {
			defer loops.Done()
			var p point
			for c.ReadFrame(64, &p) == nil {
				read.Add(1)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); read.Load() < 200; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d frames crossed", read.Load())
		}
		runtime.Gosched()
	}
	a.Fail(nil)
	loops.Wait()
	if !a.Broken() || !b.Broken() {
		t.Fatalf("broken: a %v, b %v; want both", a.Broken(), b.Broken())
	}
}

// TestSendFrameUnencodable: a message that cannot be encoded breaks the
// connection like a failed write — the peer would otherwise wait for it
// on a connection that looks healthy — and nothing reaches the wire.
func TestSendFrameUnencodable(t *testing.T) {
	nc := &loopConn{}
	c := NewConn("test", nc, 64, 64)
	if err := c.SendFrame(math.NaN()); err == nil || !c.Broken() || !nc.closed || nc.buf.Len() != 0 {
		t.Fatalf("unencodable message: %v, broken %v, %d bytes sent", err, c.Broken(), nc.buf.Len())
	}
	if err := c.SendFrame(&point{}); err == nil {
		t.Fatal("a broken connection sent on")
	}
}
