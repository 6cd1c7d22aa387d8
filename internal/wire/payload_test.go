package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/retry"
)

// failAt takes the first at bytes written to it, then fails.
type failAt struct {
	at, n int64
}

func (f *failAt) Write(p []byte) (int, error) {
	m := min(int64(len(p)), f.at-f.n)
	f.n += m
	if m < int64(len(p)) {
		return int(m), errors.New("sink is full")
	}
	return int(m), nil
}

// brokenPipe is the write end of a pipe whose reader takes limit bytes and
// hangs up: a file sink that fails partway, as a full disk does.
func brokenPipe(t *testing.T, limit int64) *os.File {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		io.CopyN(io.Discard, pr, limit)
		pr.Close()
	}()
	t.Cleanup(func() { pw.Close() })
	return pw
}

// tcpPair is both ends of a loopback TCP connection, the reading end as a
// Conn with an rsize-byte reader.
func tcpPair(t *testing.T, rsize int) (*Conn, net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	peer, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn("test", nc, rsize, 64)
	t.Cleanup(func() { peer.Close(); c.Fail(nil) })
	return c, peer
}

// TestReadPayload crosses every kind of sink with a payload that fits in
// the reader's buffer, one larger than it, and a wire that ends short. The
// count is what the sink took; a kept connection has drained exactly the
// payload, so the line behind it reads next; a failed sink is permanent on
// a kept connection, and a connection that is broken failed retryably.
func TestReadPayload(t *testing.T) {
	const rsize = 4 << 10
	const pipeLimit = 128 << 10
	type sink struct {
		name string
		make func(t *testing.T) (io.Writer, func() []byte) // the sink, and what it holds (nil: not checked)
		fail int64                                         // the byte it fails at; -1: never
		file bool                                          // it takes the tail by splice
	}
	sinks := []sink{
		{"arrival", func(*testing.T) (io.Writer, func() []byte) {
			var a bufpool.Arrival
			return &a, a.Bytes
		}, -1, false},
		{"writer", func(*testing.T) (io.Writer, func() []byte) {
			var b bytes.Buffer
			return &b, b.Bytes
		}, -1, false},
		{"fails at byte 0", func(*testing.T) (io.Writer, func() []byte) { return &failAt{at: 0}, nil }, 0, false},
		{"fails in the prefix", func(*testing.T) (io.Writer, func() []byte) { return &failAt{at: 100}, nil }, 100, false},
		{"fails in the tail", func(*testing.T) (io.Writer, func() []byte) { return &failAt{at: rsize + 1000}, nil }, rsize + 1000, false},
		{"file", func(t *testing.T) (io.Writer, func() []byte) {
			f, err := os.Create(filepath.Join(t.TempDir(), "sink"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f, func() []byte { b, _ := os.ReadFile(f.Name()); return b }
		}, -1, true},
		{"pipe failing mid-tail", func(t *testing.T) (io.Writer, func() []byte) { return brokenPipe(t, pipeLimit), nil }, pipeLimit, true},
	}
	payload := make([]byte, 1<<20+123)
	for i := range payload {
		payload[i] = byte(i*7 + i>>11)
	}
	for _, p := range []struct {
		name    string
		n, wire int64 // announced, and what the peer sends before it hangs up
		hangsUp bool
	}{
		{"fits in the buffer", 1000, 1000, false},
		{"larger than the buffer", int64(len(payload)), int64(len(payload)), false},
		{"short wire", int64(len(payload)), 300_000, true},
	} {
		for _, s := range sinks {
			t.Run(p.name+"/"+s.name, func(t *testing.T) {
				c, peer := tcpPair(t, rsize)
				w, held := s.make(t)
				go func() {
					fmt.Fprintf(peer, "%d\n", p.n)
					peer.Write(payload[:p.wire])
					if p.hangsUp {
						peer.Close()
						return
					}
					peer.Write([]byte("next\n"))
				}()
				n, err := c.ParseSize(mustLine(t, c), 1<<31)
				if err != nil || n != p.n {
					t.Fatalf("size line: %d, %v", n, err)
				}
				done := make(chan struct{})
				var got int64
				go func() { defer close(done); got, err = c.ReadPayload(w, n) }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("ReadPayload still blocked after 10s")
				}

				failed := s.fail >= 0 && s.fail < p.wire
				lo, hi := p.wire, p.wire // what the sink took
				if failed {
					lo, hi = s.fail, s.fail
					if s.file { // a pipe holds more than its reader took before it hung up
						hi = min(p.wire, p.n-1)
					}
				}
				if got < lo || got > hi {
					t.Errorf("ReadPayload = %d, want %d..%d", got, lo, hi)
				}
				switch broken := p.hangsUp || (failed && s.file); {
				case broken:
					if err == nil || !c.Broken() || retry.IsPermanent(err) {
						t.Fatalf("err %v, broken %v; want a retryable error on a broken connection", err, c.Broken())
					}
				case failed:
					if !retry.IsPermanent(err) || c.Broken() {
						t.Fatalf("err %v, broken %v; want a permanent error on a kept connection", err, c.Broken())
					}
				case err != nil || c.Broken():
					t.Fatalf("err %v, broken %v; want the payload whole", err, c.Broken())
				case held != nil && !bytes.Equal(held(), payload[:p.n]):
					t.Fatalf("the sink holds %d bytes, not the payload", len(held()))
				}
				if !c.Broken() {
					if line := mustLine(t, c); string(line) != "next" {
						t.Fatalf("the line after the payload reads %q", line)
					}
				}
			})
		}
	}
}

func mustLine(t *testing.T, c *Conn) []byte {
	t.Helper()
	line, err := c.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	return line
}
