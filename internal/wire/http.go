package wire

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strings"
	"time"

	"lobster/internal/retry"
	"lobster/internal/trace"
)

// HTTPHeader is what an HTTP/1.1 header block says about the message
// behind it: the length of its body and whether the connection ends
// after it.
type HTTPHeader struct {
	// Length is the Content-Length, -1 when the block names none.
	Length int64
	// Close reports a "close" token in the Connection fields.
	Close bool
}

// maxHeaderLines bounds the fields of one header block. Each line is
// read in place, so an endless block costs no memory, but it must not
// hold a connection's reader forever either.
const maxHeaderLines = 100

var (
	hdrContentLength    = []byte("Content-Length")
	hdrTransferEncoding = []byte("Transfer-Encoding")
	hdrConnection       = []byte("Connection")
)

// ReadHeader reads an HTTP/1.1 header block in place, through the blank
// line that ends it, and hands fn (which may be nil) every field but the
// three it reads itself: Content-Length, Transfer-Encoding and
// Connection. name and value are valid until fn returns; value has its
// surrounding blanks trimmed.
//
// A block out of protocol is a *ProtocolError and breaks c: a line that
// is not "name: value" with a token for a name and only visible
// characters, blanks and obs-text in the value (a bare CR and a folded
// continuation line included), more than maxHeaderLines fields, a
// Content-Length that is not a size of at most max, or a second one that
// differs from the first (RFC 9112 section 6.3), and any
// Transfer-Encoding: only a body of announced length is read.
func (c *Conn) ReadHeader(max int64, fn func(name, value []byte)) (HTTPHeader, error) {
	h := HTTPHeader{Length: -1}
	var lengthText int // how many digits the first Content-Length has
	for lines := 0; ; lines++ {
		line, err := c.ReadLine()
		if err != nil {
			return h, err
		}
		if len(line) == 0 {
			return h, nil
		}
		if lines == maxHeaderLines {
			return h, c.Protocol("more than %d header lines", maxHeaderLines)
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || !isToken(name) || !isFieldValue(value) {
			return h, c.Protocol("bad header line %q", line)
		}
		value = bytes.Trim(value, " \t")
		switch {
		case bytes.EqualFold(name, hdrContentLength):
			// Two sizes of the same value and the same number of digits
			// are the same text: a repeat net/http accepts too.
			n, ok := parseSize(value, max)
			if !ok || (h.Length >= 0 && (n != h.Length || len(value) != lengthText)) {
				return h, c.Protocol("bad Content-Length %q", value)
			}
			h.Length, lengthText = n, len(value)
		case bytes.EqualFold(name, hdrTransferEncoding):
			return h, c.Protocol("Transfer-Encoding %s: only a Content-Length body is read", value)
		case bytes.EqualFold(name, hdrConnection):
			h.Close = h.Close || hasToken(value, "close")
		case fn != nil:
			fn(name, value)
		}
	}
}

// hasToken reports whether the comma-separated list value holds token,
// compared without regard to case, as in "keep-alive, close".
func hasToken(value []byte, token string) bool {
	for len(value) > 0 {
		var item []byte
		item, value, _ = bytes.Cut(value, []byte(","))
		if bytes.EqualFold(bytes.Trim(item, " \t"), []byte(token)) {
			return true
		}
	}
	return false
}

// isToken reports whether b is an RFC 9110 token: what a field name, and
// a request's method, is made of.
func isToken(b []byte) bool {
	for _, ch := range b {
		if ch >= 0x80 || !tchar[ch] {
			return false
		}
	}
	return len(b) > 0
}

// isFieldValue reports whether b holds only what a field value may:
// visible characters, blanks and obs-text, and so no CR, LF or other
// control character.
func isFieldValue(b []byte) bool {
	for _, ch := range b {
		if ch < ' ' && ch != '\t' || ch == 0x7f {
			return false
		}
	}
	return true
}

var tchar = func() (t [0x80]bool) {
	for _, ch := range "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" {
		t[ch] = true
	}
	return t
}()

// HTTPClient is the module's one HTTP/1.1 GET client: frontier's
// conditions fetch, parrot's CVMFS fetches and the squid's origin fetch
// all ride it (DESIGN.md section 10, "One wire"). It writes the request
// itself, reads the answer in place (ReadLine, ReadHeader) and parks its
// keep-alive connections in a Pool, so a hot fetch dials and allocates
// nothing. It reads only a 200 with a Content-Length of at most the
// caller's cap; any other answer, and a body not read whole, fails the
// fetch and hangs up, and a connection is parked only after a whole body
// on an answer without close. Each fetch has one deadline, fetchTimeout
// after it starts, on every exchange from the request on a parked or a
// new connection (a stale one's redial included) to the last byte of the
// body; a dial is bounded by fetchTimeout of its own. Safe for concurrent
// use; the copies WithTrace makes share the connections.
type HTTPClient struct {
	addr    string // dial address, host:port
	host    string // the Host header
	path    string // the base's path, escaped, without a trailing slash
	trace   string // the Lobster-Trace value every request carries, "" for none
	conns   *Pool[*Conn]
	timeout time.Duration
}

// fetchTimeout bounds one fetch: a proxy that accepts and never answers
// costs a worker's slot 30 s and no longer.
const fetchTimeout = 30 * time.Second

// NewHTTPClient returns a client of base, an http://host[:port][/path]
// URL. Its connections are made on the first fetch.
func NewHTTPClient(base string) (*HTTPClient, error) {
	u, err := url.Parse(base)
	if err == nil && (u.Scheme != "http" || u.Host == "") {
		err = errors.New("not an http URL")
	}
	if err != nil {
		return nil, fmt.Errorf("http: base %q: %v", base, err)
	}
	c := &HTTPClient{addr: u.Host, host: u.Host, path: strings.TrimRight(u.EscapedPath(), "/")}
	if u.Port() == "" {
		c.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	c.SetDial(nil, 0)
	return c, nil
}

// SetDial makes c's connections with dial (nil: over TCP) and gives each
// fetch timeout (0: fetchTimeout), the seam through which a test reaches
// a scripted peer or a silent one. Call it before the first fetch.
func (c *HTTPClient) SetDial(dial func(addr string) (net.Conn, error), timeout time.Duration) {
	c.timeout = cmp.Or(timeout, fetchTimeout)
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, c.timeout) }
	}
	c.conns = NewPool(nil, "", func(addr string) (*Conn, error) {
		nc, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return NewConn(ProtoHTTP, nc, 4<<10, 1<<10), nil
	}, func(wc *Conn) *Conn { return wc })
}

// WithTrace returns a copy of c whose requests carry ctx in the
// Lobster-Trace header; an invalid ctx returns c itself.
func (c *HTTPClient) WithTrace(ctx trace.Context) *HTTPClient {
	if !ctx.Valid() {
		return c
	}
	cp := *c
	cp.trace = ctx.Encode()
	return &cp
}

// Get sends a GET of target, a path and any "?query" under the base's
// path, fresh asking a proxy for the origin's copy (Cache-Control:
// no-cache). header, which may be nil, sees the fields ReadHeader hands
// on. A 200 with a Content-Length of at most max is handed to body with a
// reader of exactly its n bytes, which body reads whole or fails.
//
// Any other answer breaks the connection: a status other than 200 is an
// error permanent under the retry package unless it is a 5xx, one out of
// protocol a *ProtocolError. So does an error from body, which comes back
// as it is, and a body left part unread.
func (c *HTTPClient) Get(target []byte, fresh bool, max int64, header func(name, value []byte), body func(r io.Reader, n int64) error) error {
	for _, ch := range target {
		if ch <= ' ' || ch == 0x7f {
			return fmt.Errorf("http: target %q is not a request target", string(target))
		}
	}
	deadline := time.Now().Add(c.timeout)
	var refused *statusError
	conn, err := c.conns.Take(c.addr, func(conn *Conn) (err error) {
		conn.Net.SetDeadline(deadline)
		if err = conn.Send(c.appendRequest(conn.W.AvailableBuffer(), target, fresh)); err == nil {
			refused, err = readStatus(conn)
		}
		return err
	})
	switch {
	case err != nil:
		return err
	case refused != nil:
		return conn.Fail(refused) // the body that follows is not read
	}
	h, err := conn.ReadHeader(max, header)
	if err != nil {
		return err
	}
	if h.Length < 0 {
		return conn.Protocol("response without a Content-Length")
	}
	conn.body = io.LimitedReader{R: conn.R, N: h.Length}
	if err := body(&conn.body, h.Length); err != nil {
		return conn.Fail(err)
	}
	if conn.body.N != 0 {
		return conn.Fail(fmt.Errorf("http: %d of a %d-byte body left unread", conn.body.N, h.Length))
	}
	if h.Close {
		conn.Fail(nil)
	} else {
		c.conns.Put(c.addr, conn)
	}
	return nil
}

// appendRequest appends the GET of target to b.
func (c *HTTPClient) appendRequest(b, target []byte, fresh bool) []byte {
	b = append(append(append(b, "GET "...), c.path...), target...)
	b = append(append(b, " HTTP/1.1\r\nHost: "...), c.host...)
	if fresh {
		b = append(b, "\r\nCache-Control: no-cache"...)
	}
	if c.trace != "" {
		b = append(append(b, "\r\n"+trace.Header+": "...), c.trace...)
	}
	return append(b, "\r\n\r\n"...)
}

// readStatus reads the status line. An answer other than 200 comes back
// as refused, not as an error: the exchange worked, so a parked
// connection that gets one is not stale.
func readStatus(conn *Conn) (refused *statusError, err error) {
	line, err := conn.ReadLine()
	if err != nil {
		return nil, err
	}
	version, status, _ := bytes.Cut(line, []byte(" "))
	if !bytes.HasPrefix(version, []byte("HTTP/1.")) || len(status) < 3 {
		return nil, conn.Protocol("bad status line %q", line)
	}
	if !bytes.HasPrefix(status, []byte("200")) || (len(status) > 3 && status[3] != ' ') {
		return &statusError{status: string(status)}, nil
	}
	return nil, nil
}

// Parked counts the connections c holds for its next fetches.
func (c *HTTPClient) Parked() int { return c.conns.Parked() }

// Close hangs up the parked connections; a later fetch dials afresh.
func (c *HTTPClient) Close() error { return c.conns.Close() }

// statusError is an answer other than 200 OK: the server's final word,
// unless it is a 5xx, which may be an overload another attempt outlives.
type statusError struct {
	status string // "404 Not Found"
}

func (e *statusError) Error() string { return "status " + e.status }

// Is matches retry.ErrPermanent unless the status is a 5xx.
func (e *statusError) Is(target error) bool {
	return target == retry.ErrPermanent && e.status[0] != '5'
}
