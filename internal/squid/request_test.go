package squid

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"lobster/internal/wire"
)

// streamConn is a client connection that sends what its reader holds and
// swallows what the proxy answers.
type streamConn struct{ r io.Reader }

func (s *streamConn) Read(b []byte) (int, error)       { return s.r.Read(b) }
func (s *streamConn) Write(b []byte) (int, error)      { return len(b), nil }
func (s *streamConn) Close() error                     { return nil }
func (s *streamConn) LocalAddr() net.Addr              { return nil }
func (s *streamConn) RemoteAddr() net.Addr             { return nil }
func (s *streamConn) SetDeadline(time.Time) error      { return nil }
func (s *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (s *streamConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzRequest: whatever a client sends, the proxy's request reader never
// panics; a request it refuses breaks the connection, so nothing is
// answered on a request read half-way; and every request it accepts,
// net/http reads too, as a GET without a body, with the cache key its
// r.URL.Path and RawQuery make and to exactly the same byte.
func FuzzRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /frontier/payload?run=7&tag=align HTTP/1.1\r\nHost: 127.0.0.1:3128\r\n\r\n",
		"GET http://127.0.0.1:3128/cvmfs/cms.cern.ch/.cvmfspublished HTTP/1.1\r\nHost: 127.0.0.1:3128\r\n\r\n",
		"GET /cvmfs/cms.cern.ch/data/ab/cdef HTTP/1.1\r\nHost: s\r\nCache-Control: no-cache\r\n\r\n",
		"GET /frontier/payload?run=7&tag=align HTTP/1.1\r\nHost: s\r\nLobster-Trace: lt1-00000000000000ab-00000000000000cd-01\r\n\r\n",
		"GET /" + strings.Repeat("x", 5000) + " HTTP/1.1\r\nHost: s\r\n\r\n",
		"GET /obj HTTP/1.1\r\nHost: s\r\nContent-Length: 4\r\n\r\nbody",
		"GET /a%20b?x HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /a HTTP/1.1\r\nHost: s\r\nConnection: keep-alive, close\r\n\r\n",
		"POST /obj HTTP/1.1\r\nHost: s\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		c := wire.NewConn(wire.ProtoHTTP, &streamConn{src}, 4<<10, 4<<10)
		refSrc := bytes.NewReader(data)
		ref := bufio.NewReader(refSrc)
		var req request
		for i := 0; ; i++ {
			err := readRequest(c, &req)
			if err != nil {
				if !c.Broken() {
					t.Fatalf("request %d of %q: %v left the connection usable", i, data, err)
				}
				return
			}
			hr, herr := http.ReadRequest(ref)
			if herr != nil {
				t.Fatalf("request %d of %q: accepted, and net/http refuses it: %v", i, data, herr)
			}
			key := hr.URL.Path
			if hr.URL.RawQuery != "" {
				key += "?" + hr.URL.RawQuery
			}
			switch {
			case hr.Method != "GET" || hr.ContentLength > 0 || len(hr.TransferEncoding) > 0:
				t.Fatalf("request %d of %q: accepted a %s with length %d, transfer %v", i, data, hr.Method, hr.ContentLength, hr.TransferEncoding)
			case string(req.key) != key:
				t.Fatalf("request %d of %q: key %q, net/http's %q", i, data, req.key, key)
			}
			ours := len(data) - src.Len() - c.R.Buffered()
			theirs := len(data) - refSrc.Len() - ref.Buffered()
			if ours != theirs {
				t.Fatalf("request %d of %q: read to byte %d, net/http to byte %d", i, data, ours, theirs)
			}
		}
	})
}
