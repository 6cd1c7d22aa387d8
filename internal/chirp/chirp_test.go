package chirp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lobster/internal/wire"
)

func newTestServer(t *testing.T, maxConcurrent int) (*Server, *LocalFS) {
	t.Helper()
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(fs, "127.0.0.1:0", maxConcurrent)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, fs
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), time.Second*5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	payload := bytes.Repeat([]byte("chirp!"), 1000)
	if err := c.PutFile("/out/task_0.root", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetFile("/out/task_0.root")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	st := srv.Stats()
	if st.BytesIn != int64(len(payload)) || st.BytesOut != int64(len(payload)) {
		t.Errorf("byte accounting: in=%d out=%d", st.BytesIn, st.BytesOut)
	}
}

func TestEmptyFile(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	if err := c.PutFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty file: %v, %d bytes", err, len(got))
	}
}

// TestAppendIsUnknown: the protocol has no append; the server refuses
// it as it does any unknown command, and nothing reaches the backend.
func TestAppendIsUnknown(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{fs: fs}
	c, _ := serverConn("abc")
	if err := s.dispatch([]byte("append /f.dat 3"), c); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("append = %v, want an unknown command", err)
	}
	if _, err := fs.Stat("/f.dat"); err == nil {
		t.Error("append reached the backend")
	}
}

func TestStatAndList(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	c.PutFile("/d/a.root", []byte("12345"))
	c.PutFile("/d/b.root", []byte("1234567"))
	st, err := c.Stat("/d/a.root")
	if err != nil || st.Size != 5 || st.IsDir {
		t.Fatalf("stat: %+v, %v", st, err)
	}
	st, err = c.Stat("/d")
	if err != nil || !st.IsDir {
		t.Fatalf("stat dir: %+v, %v", st, err)
	}
	ls, err := c.List("/d")
	if err != nil || len(ls) != 2 {
		t.Fatalf("list: %v, %v", ls, err)
	}
	if ls[0].Name != "a.root" || ls[0].Size != 5 || ls[1].Name != "b.root" {
		t.Errorf("listing = %+v", ls)
	}
}

func TestUnlink(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	c.PutFile("/x", []byte("data"))
	if err := c.Unlink("/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetFile("/x"); err == nil {
		t.Error("deleted file readable")
	}
	if err := c.Unlink("/x"); err == nil {
		t.Error("double unlink succeeded")
	}
}

func TestErrorsKeepConnectionUsable(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	if _, err := c.GetFile("/missing"); err == nil {
		t.Fatal("missing file read")
	}
	// Connection must survive the error.
	if err := c.PutFile("/after-error", []byte("ok")); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestPathEscapeRejected(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	if _, err := c.GetFile("/../../etc/passwd"); err == nil {
		t.Error("escape path read")
	}
	if err := c.PutFile("/../evil", []byte("x")); err == nil {
		t.Error("escape path written")
	}
	if _, err := c.GetFile("relative"); err == nil {
		t.Error("relative path read")
	}
}

func TestWhitespacePathRejectedClientSide(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	if err := c.PutFile("/has space", []byte("x")); err == nil {
		t.Error("whitespace path accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			path := fmt.Sprintf("/out/f%d", i)
			payload := bytes.Repeat([]byte{byte(i)}, 1000+i)
			if err := c.PutFile(path, payload); err != nil {
				errs[i] = err
				return
			}
			got, err := c.GetFile(path)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, payload) {
				errs[i] = fmt.Errorf("client %d payload mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.Stats().Connections != n {
		t.Errorf("connections = %d", srv.Stats().Connections)
	}
}

func TestConnectionCapQueues(t *testing.T) {
	// Cap of 1: a second client's request waits for the first connection to
	// finish, and the queue wait is visible in stats.
	srv, _ := newTestServer(t, 1)
	c1 := dial(t, srv)
	c1.PutFile("/a", []byte("x"))

	done := make(chan error, 1)
	go func() {
		c2, err := Dial(srv.Addr(), 5*time.Second)
		if err != nil {
			done <- err
			return
		}
		defer c2.Close()
		_, err = c2.GetFile("/a")
		done <- err
	}()
	// Hold the only slot briefly, then release by closing c1.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("second client served while slot held: %v", err)
	default:
	}
	c1.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if srv.Stats().QueueWaitSum == 0 {
		t.Error("no queue wait recorded despite cap of 1")
	}
}

func TestRoundTripProperty(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	i := 0
	check := func(data []byte) bool {
		i++
		path := fmt.Sprintf("/prop/f%d", i)
		if err := c.PutFile(path, data); err != nil {
			return false
		}
		got, err := c.GetFile(path)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCleanPath(t *testing.T) {
	good := []string{"/a", "/a/b/c", "/a/./b", "/"}
	for _, p := range good {
		if _, err := CleanPath(p); err != nil {
			t.Errorf("CleanPath(%q) = %v", p, err)
		}
	}
	bad := []string{"a/b", "", "/a/../../b", "/.."}
	for _, p := range bad {
		if cp, err := CleanPath(p); err == nil {
			t.Errorf("CleanPath(%q) accepted as %q", p, cp)
		}
	}
}

// cleanPathBySplitting is CleanPath as it was before the scan replaced
// strings.Split: the reference the allocation-free version is pinned
// against, as LocalFS.resolve is against the filepath.Join it replaced.
func cleanPathBySplitting(p string) (string, bool) {
	if !strings.HasPrefix(p, "/") {
		return "", false
	}
	for _, part := range strings.Split(p, "/") {
		if part == ".." {
			return "", false
		}
	}
	return path.Clean(p), true
}

func TestCleanPathMatchesSplitting(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		"/", "//", "///", "/a", "/a/", "/a//b", "//a/b//", "/a/./b", "/./", "/.", "/a/.",
		"/..", "/../", "/../a", "/a/..", "/a/../", "/a/../b", "/a/b/../../c", "//..", "/..//",
		"/...", "/.../", "/a/...", "/..a", "/a..", "/a../b", "/a/..b", "/a/b..", "/..a/..", "/.../..",
		"/a.b/c..d/..e", "/. ./x", "/.. /x", "/\x00..", "/store/user/run-1/out_17.root",
		"", ".", "..", "a", "a/b", "./a", "../a", "a/..", " /a",
	} {
		want, wantOK := cleanPathBySplitting(p)
		got, err := CleanPath(p)
		if (err == nil) != wantOK || got != want {
			t.Errorf("CleanPath(%q) = %q, %v; splitting gives %q, ok %v", p, got, err, want, wantOK)
		}
		if !wantOK {
			continue
		}
		resolved, err := fs.resolve(p)
		if joined := filepath.Join(fs.root, filepath.FromSlash(want)); err != nil || resolved != joined {
			t.Errorf("resolve(%q) = %q, %v; Join gives %q", p, resolved, err, joined)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := newTestServer(t, 2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func BenchmarkPutGet(b *testing.B) {
	fs, _ := NewLocalFS(b.TempDir())
	srv, err := NewServer(fs, "127.0.0.1:0", 8)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("x"), 64<<10)
	b.SetBytes(int64(len(payload)) * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PutFile("/bench", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.GetFile("/bench"); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = strings.TrimSpace // keep strings import if tests above change

// rawSend drives the server with hand-crafted protocol lines, covering the
// malformed-input paths a well-behaved client never exercises.
func rawSend(t *testing.T, addr string, lines string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(lines)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, _ := conn.Read(buf)
	return string(buf[:n])
}

func TestProtocolMalformedRequests(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	cases := []struct{ send, wantPrefix string }{
		{"getfile\n", "-1 "},
		{"getfile a b c\n", "-1 "},
		{"putfile /x notanumber\n", "-1 "},
		{"putfile /x -5\n", "-1 "},
		{"frobnicate /x\n", "-1 "},
		{"stat\n", "-1 "},
		{"\n", "-1 "},
	}
	for _, c := range cases {
		got := rawSend(t, srv.Addr(), c.send)
		if !strings.HasPrefix(got, c.wantPrefix) {
			t.Errorf("request %q: response %q", c.send, got)
		}
	}
}

func TestProtocolQuitClosesCleanly(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	got := rawSend(t, srv.Addr(), "quit\n")
	if got != "" {
		t.Errorf("quit produced output %q", got)
	}
}

// TestNextFieldMatchesFields: the server cuts a command line into fields
// exactly as strings.Fields does — ASCII and Unicode spaces, a stray \r,
// invalid UTF-8 — so a line whose fields are "stat /f" is answered, and
// any other line, one field too many included, is refused in protocol.
func TestNextFieldMatchesFields(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	if err := dial(t, srv).PutFile("/f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"stat /f", "  stat   /f  ", "stat\t/f", "\v\fstat /f\r", "stat\u0085/f",
		"stat\u00a0/f", "stat /f crc x", "stat/f", "\xff stat /f", "stat /f\xff",
	} {
		want := "-1 "
		if slices.Equal(strings.Fields(line), []string{"stat", "/f"}) {
			want = "5 file\n"
		}
		if got := rawSend(t, srv.Addr(), line+"\n"); !strings.HasPrefix(got, want) {
			t.Errorf("request %q: response %q, want %q (strings.Fields gives %q)", line, got, want, strings.Fields(line))
		}
	}
}

// allocatedDuring reports the bytes the process allocated while fn ran.
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOverlongLineEndsConnection: a peer whose line outgrows the 64 KiB
// reader is hung up on, and neither end holds what it was sent.
func TestOverlongLineEndsConnection(t *testing.T) {
	junk := bytes.Repeat([]byte{'x'}, 1<<20)

	t.Run("server", func(t *testing.T) {
		srv, _ := newTestServer(t, 4)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		grew := allocatedDuring(func() {
			go conn.Write(junk) // cut short once the server hangs up
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			_, err = conn.Read(make([]byte, 1))
		})
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("server kept the connection open (read: %v)", err)
		}
		if grew > 512<<10 {
			t.Errorf("server allocated %d bytes for a line it never finished reading", grew)
		}
	})

	t.Run("client", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			bufio.NewReader(conn).ReadString('\n')
			conn.Write(junk)
		}()
		c, err := Dial(lis.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		grew := allocatedDuring(func() { _, err = c.Stat("/f") })
		if err == nil || !c.conn.Broken() {
			t.Fatalf("client accepted an endless status line (err %v, broken %v)", err, c.conn.Broken())
		}
		if grew > 512<<10 {
			t.Errorf("client allocated %d bytes for a line it never finished reading", grew)
		}
	})
}

func TestClientStatParsesDirAndFile(t *testing.T) {
	srv, _ := newTestServer(t, 4)
	c := dial(t, srv)
	c.PutFile("/dir/file", []byte("12345"))
	fi, err := c.Stat("/dir")
	if err != nil || !fi.IsDir {
		t.Fatalf("dir stat: %+v, %v", fi, err)
	}
	fi, err = c.Stat("/dir/file")
	if err != nil || fi.IsDir || fi.Size != 5 {
		t.Fatalf("file stat: %+v, %v", fi, err)
	}
	if _, err := c.Stat("/missing"); err == nil {
		t.Error("stat of missing path succeeded")
	}
}

// TestStatCRC: "stat <path> crc" adds the server-computed checksum on
// both kinds of backend, moves no payload, tracks a same-size rewrite,
// and leaves directories, missing files and plain stat as they were.
func TestStatCRC(t *testing.T) {
	streaming, _ := newTestServer(t, 4)
	plainFS, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Wrapping hides LocalFS's streaming extensions: the ReadFile path.
	plain, err := NewServer(struct{ FileSystem }{plainFS}, "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })
	for name, srv := range map[string]*Server{"streaming": streaming, "plain": plain} {
		c := dial(t, srv)
		content := bytes.Repeat([]byte("pile-up "), 1000)
		if err := c.PutFile("/pu/minbias.root", content); err != nil {
			t.Fatal(err)
		}
		out := srv.Stats().BytesOut
		fi, crc, err := c.StatCRC("/pu/minbias.root")
		if err != nil || fi.Size != int64(len(content)) || fi.IsDir || crc != crc32.ChecksumIEEE(content) {
			t.Errorf("%s: StatCRC = %+v, %08x, %v; want size %d crc %08x", name, fi, crc, err, len(content), crc32.ChecksumIEEE(content))
		}
		if srv.Stats().BytesOut != out {
			t.Errorf("%s: a checksum stat moved payload bytes", name)
		}
		content[0] ^= 1
		c.PutFile("/pu/minbias.root", content)
		if _, crc, _ := c.StatCRC("/pu/minbias.root"); crc != crc32.ChecksumIEEE(content) {
			t.Errorf("%s: checksum did not follow a same-size rewrite", name)
		}
		if fi, _, err := c.StatCRC("/pu"); err != nil || !fi.IsDir {
			t.Errorf("%s: StatCRC of a directory: %+v, %v", name, fi, err)
		}
		if _, _, err := c.StatCRC("/pu/missing"); err == nil {
			t.Errorf("%s: StatCRC of a missing file succeeded", name)
		}
		if fi, err := c.Stat("/pu/minbias.root"); err != nil || fi.Size != int64(len(content)) {
			t.Errorf("%s: plain stat after checksum stats: %+v, %v", name, fi, err)
		}
	}
}

// TestStatCRCGarbled: a regular file's answer with a missing or mangled
// checksum is a protocol error, not a checksum of zero.
func TestStatCRCGarbled(t *testing.T) {
	for _, answer := range []string{"5 file zz\n", "5 file\n"} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			bufio.NewReader(conn).ReadString('\n')
			io.WriteString(conn, answer)
		}()
		c, err := Dial(lis.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var pe *wire.ProtocolError
		if _, crc, err := c.StatCRC("/f"); !errors.As(err, &pe) {
			t.Errorf("answer %q: crc %08x, err %v; want a protocol error", answer, crc, err)
		}
		c.Close()
	}
}
