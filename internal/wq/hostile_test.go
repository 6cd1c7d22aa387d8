package wq

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// hostileStreams are what a peer that is not speaking the protocol sends
// instead of a message, followed by 64 MiB of one JSON string that never
// ends: an object with no size line in front of it, and a size line one
// byte over maxFrame.
var hostileStreams = []struct{ name, head string }{
	{"unterminated object", `{"type":"hello","name":"`},
	{"size over maxFrame", strconv.Itoa(maxFrame+1) + "\n" + `{"type":"hello","name":"`},
}

// streamHostile sends head and then up to 64 MiB over c in chunks, stopping
// when the receiver hangs up, and returns whether it did hang up and the
// bytes this process allocated meanwhile.
func streamHostile(c net.Conn, head string) (hungUp bool, allocated uint64) {
	chunk := bytes.Repeat([]byte("a"), 64<<10)
	ended := make(chan struct{})
	go func() {
		io.Copy(io.Discard, c) // a worker's hello, then nothing until the hang-up
		close(ended)
	}()
	// A receiver that stops reading without hanging up must fail the test,
	// not hang it.
	c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Write([]byte(head))
	for sent := 0; sent < 64<<20; sent += len(chunk) {
		if _, err := c.Write(chunk); err != nil {
			break
		}
	}
	select {
	case <-ended:
		hungUp = true
	case <-time.After(10 * time.Second):
	}
	runtime.ReadMemStats(&after)
	return hungUp, after.TotalAlloc - before.TotalAlloc
}

func checkHostile(t *testing.T, c net.Conn, head string) {
	t.Helper()
	hungUp, allocated := streamHostile(c, head)
	t.Logf("hung up %v, %d bytes allocated", hungUp, allocated)
	if !hungUp {
		t.Error("the receiver never hung up")
	}
	if allocated >= 1<<20 {
		t.Errorf("the receiver allocated %d bytes while the peer streamed, want < 1 MiB", allocated)
	}
}

// TestHostilePeerAtMaster: a worker that sends a message with no size
// line, or one over maxFrame, is hung up on before the master holds more
// than its size line's buffer of it.
func TestHostilePeerAtMaster(t *testing.T) {
	for _, s := range hostileStreams {
		t.Run(s.name, func(t *testing.T) {
			m := newMaster(t)
			c, err := net.DialTimeout("tcp", m.Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			checkHostile(t, c, s.head)
		})
	}
}

// TestHostilePeerAtWorker is the same stream from a master: the worker's
// receive path is bounded the same way.
func TestHostilePeerAtWorker(t *testing.T) {
	for _, s := range hostileStreams {
		t.Run(s.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			accepted := make(chan net.Conn, 1)
			go func() {
				if c, err := lis.Accept(); err == nil {
					accepted <- c
				}
			}()
			newWorker(t, lis.Addr().String(), "victim", 1)
			c := <-accepted
			defer c.Close()
			checkHostile(t, c, s.head)
		})
	}
}
