package xrootd

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/wire"
)

// TestFieldsMatchStringsFields: the data server cuts a command line into
// fields exactly as strings.Fields delimits them, Unicode spaces and
// invalid UTF-8 included: a line whose fields are "open <lfn>" is
// answered, any other is refused. The ASCII cases ride in
// TestDispatchReplies.
func TestFieldsMatchStringsFields(t *testing.T) {
	s := newServer(t, "T3")
	mustStore(s, "/f", bytes.Repeat([]byte("x0"), 128))
	for _, line := range []string{
		"open /f", " \v\f open /f", "open\u00a0/f", "open\u2003/f\u0085", "open\u0085/f",
		"\xff\xfe open /f", "open /f\xff", "open/f", "open /f a b c d e",
	} {
		want := ""
		if slices.Equal(strings.Fields(line), []string{"open", "/f"}) {
			want = "256\n"
		}
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		err := s.dispatch([]byte(line), nil, w)
		w.Flush()
		if out.String() != want || (err == nil) != (want != "") {
			t.Errorf("dispatch(%q) = %q, error %v; want %q (strings.Fields gives %q)", line, out.String(), err, want, strings.Fields(line))
		}
	}
}

// TestDispatchReplies pins the protocol byte for byte: what each command
// line is answered with, or the error the caller reports as "-1 ...".
func TestDispatchReplies(t *testing.T) {
	s := newServer(t, "T3")
	content := bytes.Repeat([]byte("x0"), 128)
	mustStore(s, "/store/a.root", content)
	for _, tc := range []struct{ line, reply, err string }{
		{line: "open /store/a.root", reply: "256\n"},
		{line: "open\t/store/a.root  ", reply: "256\n"},
		{line: "open /store/a.root\r", reply: "256\n"},
		{line: "open /missing", err: "no such file /missing"},
		{line: "open", err: "usage: open <lfn>"},
		{line: "open /store/a.root extra", err: "usage: open <lfn>"},
		{line: "stat /store/a.root", err: `unknown command "stat"`},
		{line: "read /store/a.root 0 4", reply: "4\nx0x0"},
		{line: "read /store/a.root 1 3", reply: "3\n0x0"},
		{line: "  read\t/store/a.root  1   3 ", reply: "3\n0x0"},
		{line: "read /store/a.root 250 64", reply: "6\nx0x0x0"},
		{line: "read /store/a.root 256 64", reply: "0\n"},
		{line: "read /store/a.root 9223372036854775807 9223372036854775807", reply: "0\n"},
		{line: "read /store/a.root 0 0", reply: "0\n"},
		{line: "read /store/a.root +2 +2", reply: "2\nx0"},
		{line: "read /store/a.root -1 8", err: "bad offset or length"},
		{line: "read /store/a.root 0 -8", err: "bad offset or length"},
		{line: "read /store/a.root zero ten", err: "bad offset or length"},
		{line: "read /store/a.root 0x10 8", err: "bad offset or length"},
		{line: "read /store/a.root 0", err: "usage: read <lfn> <offset> <len>"},
		{line: "read /store/a.root 0 1 2 3 4", err: "usage: read <lfn> <offset> <len>"},
		{line: "read /missing 0 1", err: "no such file /missing"},
		{line: "  ", err: "empty command"},
		{line: "", err: "empty command"},
		{line: "bogus /store/a.root", err: `unknown command "bogus"`},
		{line: "OPEN /store/a.root", err: `unknown command "OPEN"`},
	} {
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		err := s.dispatch([]byte(tc.line), nil, w)
		w.Flush()
		if msg := errString(err); msg != tc.err || out.String() != tc.reply {
			t.Errorf("dispatch(%q) = %q, error %q; want %q, error %q", tc.line, out.String(), msg, tc.reply, tc.err)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestConcurrentPositionalReads: every connection reads through the one
// handle on the spool, so eight of them walking one file at interleaved
// offsets, small reads and chunk-sized ones, must each get exactly the
// bytes at the offsets they asked for — of that file, which is not the
// first in the spool.
func TestConcurrentPositionalReads(t *testing.T) {
	srv := newServer(t, "T3")
	content := make([]byte, 3<<20+4321)
	rand.New(rand.NewSource(7)).Read(content)
	red := NewRedirector()
	mustStore(srv, "/before", make([]byte, 12345))
	red.Register("/f", mustStore(srv, "/f", content))
	mustStore(srv, "/after", make([]byte, 999))
	const conns = 8
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{Redirector: red}
			defer c.Close()
			f, err := c.Open("/f")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			// Strides that share no factor with each other: the
			// connections are never at the same offset for long.
			sizes := []int{1 << 10, 100_003, 64 << 10, 1<<20 + 17}
			buf := make([]byte, sizes[len(sizes)-1])
			off := int64(i * 4099)
			for k := 0; k < 40; k++ {
				p := buf[:sizes[(i+k)%len(sizes)]]
				n, err := f.ReadAt(p, off)
				if err != nil {
					t.Errorf("conn %d: ReadAt(%d, %d): %v", i, len(p), off, err)
					return
				}
				want := content[off:min(off+int64(len(p)), int64(len(content)))]
				if !bytes.Equal(p[:n], want) {
					t.Errorf("conn %d: ReadAt(%d, %d) returned %d bytes that are not the file's", i, len(p), off, n)
					return
				}
				off = (off + int64(n) + int64(i+1)*7919) % int64(len(content))
			}
		}(i)
	}
	wg.Wait()
}

// TestStoreFromFillError: a fill that fails part-way leaves nothing
// behind — no descriptor, no LFN, and what it wrote is written over by
// the next store — and does not disturb what was stored under that name
// before.
func TestStoreFromFillError(t *testing.T) {
	srv := newServer(t, "T3")
	boom := errors.New("generator failed")
	fds := openFDs()
	_, err := srv.StoreFrom("/f", func(w io.Writer) error {
		if _, err := w.Write(make([]byte, 4096)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("StoreFrom = %v, want the fill's error", err)
	}
	if n := openFDs(); n > fds {
		t.Errorf("%d descriptors before, %d after a failed fill", fds, n)
	}
	red := NewRedirector()
	red.Register("/f", Replica{Site: "T3", Addr: srv.Addr()})
	c := &Client{Redirector: red}
	defer c.Close()
	if _, err := c.Open("/f"); !errors.Is(err, wire.ErrNotExist) {
		t.Errorf("Open after a failed fill = %v, want no such file", err)
	}

	mustStore(srv, "/f", []byte("kept"))
	if _, err := srv.StoreFrom("/f", func(io.Writer) error { return boom }); err == nil {
		t.Fatal("StoreFrom swallowed the fill's error")
	}
	if got, err := c.Fetch("/f"); err != nil || string(got) != "kept" {
		t.Errorf("after a failed re-store: %q, %v; want the earlier content", got, err)
	}
}

// TestRestoreKeepsReadsInFlight: the spool has no name, only the server's
// one handle, whatever is stored; and storing an LFN again leaves the
// bytes it replaces where they are, so a read that looked the LFN up
// before the store finishes on the bytes it started on.
func TestRestoreKeepsReadsInFlight(t *testing.T) {
	srv := newServer(t, "T3")
	if _, err := os.Stat(srv.spool.Name()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the spool is linked, a killed server would leave it on disk: %v", err)
	}
	fds := openFDs()
	red := NewRedirector()
	red.Register("/f", mustStore(srv, "/f", []byte("first version")))
	old, err := srv.lookup([]byte("/f"))
	if err != nil {
		t.Fatal(err)
	}
	mustStore(srv, "/f", []byte("second"))
	if n := openFDs(); n > fds {
		t.Errorf("%d descriptors on an empty server, %d after two stores", fds, n)
	}
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if err := srv.sendRange(w, old.off, old.size); err != nil {
		t.Fatalf("read on the replaced file: %v", err)
	}
	w.Flush()
	if out.String() != "13\nfirst version" {
		t.Errorf("read on the replaced file = %q", out.String())
	}
	c := &Client{Redirector: red}
	defer c.Close()
	if got, err := c.Fetch("/f"); err != nil || string(got) != "second" {
		t.Errorf("fetch after re-store = %q, %v", got, err)
	}
	if got := srv.storedBytes.Load(); got != int64(len("second")) {
		t.Errorf("stored bytes = %d, want only the current file's", got)
	}
}

// TestSpoolErrorMidReplyHangsUp: a spool read that fails before anything
// was written is reported in protocol and the connection carries on; one
// that fails after payload has left must hang the connection up — a "-1"
// line there would be counted by the client as payload.
func TestSpoolErrorMidReplyHangsUp(t *testing.T) {
	srv := newServer(t, "T3")
	content := make([]byte, 3<<20)
	rand.New(rand.NewSource(9)).Read(content)
	red := NewRedirector()
	red.Register("/f", mustStore(srv, "/f", content))
	c := &Client{Redirector: red}
	defer c.Close()
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(content))

	// The spool loses its tail behind the server's back: the first chunk
	// of a whole-file read still succeeds, the second comes up short.
	if err := srv.spool.Truncate(1<<20 + 1<<19); err != nil {
		t.Fatal(err)
	}
	_, err = f.ReadAt(buf[:64], 2<<20)
	var se *wire.ServerError
	if !errors.As(err, &se) || f.conn.Broken() {
		t.Fatalf("read wholly past the truncation = %v (broken %v), want an in-protocol error on a live connection", err, f.conn.Broken())
	}
	if n, err := f.ReadAt(buf[:64], 0); err != nil || !bytes.Equal(buf[:n], content[:64]) {
		t.Fatalf("connection out of sync after an in-protocol spool error: %d, %v", n, err)
	}
	n, err := f.ReadAt(buf, 0)
	if err == nil || retry.IsPermanent(err) {
		t.Fatalf("read across the truncation = %d, %v; want a transport failure", n, err)
	}
	if !f.conn.Broken() {
		t.Error("connection survived a reply cut short")
	}
}

// TestTrackConnAfterClose: a closed server takes no connection and no
// file (wire's TestServerTrackAfterClose has the connection that races
// the close).
func TestTrackConnAfterClose(t *testing.T) {
	srv := newServer(t, "T3")
	addr := srv.Addr()
	srv.Close()
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Error("a closed server accepted a connection")
	}
	if _, err := srv.StoreFrom("/late", func(io.Writer) error { return nil }); err == nil {
		t.Error("a closed server stored a file")
	}
}

// TestInstrumentExportsServerCounters: the four series read the server's
// own counters at scrape time.
func TestInstrumentExportsServerCounters(t *testing.T) {
	srv := newServer(t, "T3")
	reg := telemetry.NewRegistry()
	srv.Instrument(reg)
	srv.Instrument(nil) // no registry: no-op
	red := NewRedirector()
	red.Register("/f", mustStore(srv, "/f", make([]byte, 5000)))
	c := &Client{Redirector: red}
	defer c.Close()
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(make([]byte, 1000), 0); err != nil {
		t.Fatal(err)
	}
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"lobster_xrootd_server_reads_total 1",
		"lobster_xrootd_server_bytes_total 1000",
		"lobster_xrootd_server_open_conns 1",
		"lobster_xrootd_server_stored_bytes 5000",
	} {
		if !strings.Contains(expo.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, expo.String())
		}
	}
}
