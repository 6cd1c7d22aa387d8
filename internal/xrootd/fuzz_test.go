package xrootd

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzDispatch feeds arbitrary protocol lines to the command dispatcher
// of a data server holding one spooled file. The dispatcher must never
// panic, and its framing must stay coherent: an error return means
// nothing was written (the caller emits "-1 ..." next, which would desync
// the stream after a partial success reply) — errHangup, the one error
// that may follow written bytes, cannot come from a healthy spool and a
// sink that takes every write — and a successful read's "<n>\n" header
// must be followed by exactly n payload bytes drawn from the stored file.
func FuzzDispatch(f *testing.F) {
	f.Add("open /store/a.root")
	f.Add("open /missing")
	f.Add("open")
	f.Add("stat /store/a.root")
	f.Add("stat /missing")
	f.Add("read /store/a.root 0 64")
	f.Add("read /store/a.root 100 9999999")
	f.Add("read /store/a.root -1 8")
	f.Add("read /store/a.root 0 -8")
	f.Add("read /store/a.root 9223372036854775807 9223372036854775807")
	f.Add("read /store/a.root zero ten")
	f.Add("read /store/a.root 0")
	f.Add("  ")
	f.Add("bogus /store/a.root")
	f.Add("open /store/a.root extra")
	s, err := NewDataServer("T3_FUZZ", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	content := bytes.Repeat([]byte("x0"), 128)
	s.Store("/store/a.root", content)
	f.Fuzz(func(t *testing.T, line string) {
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		err := s.dispatch([]byte(line), w)
		w.Flush()
		if err != nil {
			if out.Len() != 0 {
				t.Fatalf("dispatch(%q) failed (%v) after writing %q — the -1 reply would desync the stream", line, err, out.Bytes())
			}
			return
		}
		header, body, ok := bytes.Cut(out.Bytes(), []byte("\n"))
		if !ok {
			t.Fatalf("dispatch(%q) succeeded without a newline-terminated header: %q", line, out.Bytes())
		}
		if strings.HasPrefix(line, "read") {
			n, perr := strconv.Atoi(string(header))
			if perr != nil || n != len(body) {
				t.Fatalf("dispatch(%q) framed %d payload bytes under header %q", line, len(body), header)
			}
			if !bytes.Contains(content, body) {
				t.Fatalf("dispatch(%q) served %q, not a range of the stored file", line, body)
			}
		}
		if strings.HasPrefix(line, "stat") {
			var size int64
			var crc uint32
			if _, serr := fmt.Sscanf(string(header), "%d %x", &size, &crc); serr != nil {
				t.Fatalf("dispatch(%q) stat reply %q does not parse", line, header)
			}
		}
	})
}

// FuzzFetchReplies feeds an arbitrary reply stream to the client's
// whole-file Fetch, the replica-facing half of the protocol: the open's
// size line, then one size line and payload per read. Whatever the
// replica says, the client must not panic, must not hand back more bytes
// than the replica sent, and must not park a connection it gave up on.
func FuzzFetchReplies(f *testing.F) {
	f.Add([]byte("5\n5\nhello"))
	f.Add([]byte("0\n"))
	f.Add([]byte("8\n3\nabc5\ndefgh"))
	f.Add([]byte("1099511627776\n1024\n" + strings.Repeat("x", 1<<10))) // a terabyte announced, a kilobyte sent
	f.Add([]byte("33554432\n1048577\nxx"))
	f.Add([]byte("5\n-5\nhello"))
	f.Add([]byte("-1 no such file\n"))
	f.Add([]byte("-7\n"))
	f.Add([]byte("5\n0\n"))
	f.Add([]byte("five\n"))
	f.Fuzz(func(t *testing.T, replies []byte) {
		c, conn := cannedClient(string(replies))
		data, err := c.Fetch("/f")
		if len(data) > len(replies) {
			t.Fatalf("Fetch returned %d bytes from a replica that sent %d", len(data), len(replies))
		}
		if err != nil && data != nil {
			t.Fatalf("Fetch failed (%v) and still returned %d bytes", err, len(data))
		}
		if conn.closed && len(c.idle.byAddr["liar"]) != 0 {
			t.Fatalf("a closed connection was parked (Fetch error: %v)", err)
		}
	})
}
