package chirp

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// FuzzDispatch feeds arbitrary protocol lines (plus an arbitrary
// payload stream behind them) to the server's command dispatcher over a
// real LocalFS, once as the streaming backend it is and once hidden
// behind the plain FileSystem interface, where a put takes the in-memory
// fallback. The dispatcher must never panic, never commit memory
// for payload bytes that were never sent, and on error must not have
// emitted a success header (the error reply would desync the stream).
func FuzzDispatch(f *testing.F) {
	f.Add("getfile /f.dat", []byte{})
	f.Add("putfile /f.dat 5", []byte("hello"))
	f.Add("append /f.dat 3", []byte("abcdef"))
	f.Add("putfile /f.dat 999999999", []byte("short"))
	f.Add("putfile /f.dat -3", []byte{})
	f.Add("putfile /f.dat 9223372036854775807", []byte{})
	f.Add("append /f.dat 2147483648", bytes.Repeat([]byte("x"), 1<<10)) // the most a client may announce, a kilobyte sent
	f.Add("stat /", []byte{})
	f.Add("ls /", []byte{})
	f.Add("unlink /f.dat", []byte{})
	f.Add("getfile ../../etc/passwd", []byte{})
	f.Add("getfile", []byte{})
	f.Add("  ", []byte{})
	f.Add("bogus /f.dat", []byte{})
	f.Add("getfile /"+strings.Repeat("x", 64<<10), []byte{}) // longer than serveConn's reader would pass on
	f.Fuzz(func(t *testing.T, line string, payload []byte) {
		fs, err := NewLocalFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []FileSystem{fs, struct{ FileSystem }{fs}} {
			s := &Server{fs: backend}
			r := bufio.NewReader(bytes.NewReader(payload))
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			err = s.dispatch(line, r, w, nil)
			w.Flush()
			if err != nil && strings.HasPrefix(out.String(), "0\n") {
				t.Fatalf("dispatch(%q) failed (%v) after writing a success reply %q", line, err, out.String())
			}
		}
	})
}
