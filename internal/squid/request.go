package squid

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/url"

	"lobster/internal/trace"
	"lobster/internal/wire"
)

// request is what the proxy reads of one client request. Its buffers
// belong to the connection and serve every request on it, so reading a
// hot hit's request allocates nothing.
type request struct {
	key     []byte // the cache key: the path, and "?" and the query if any
	trace   []byte // the Lobster-Trace value, empty without one
	noCache bool   // Cache-Control: no-cache, a refetch from the origin
	close   bool   // the connection ends after the answer
}

// context decodes the request's trace context; the zero Context without one.
func (r *request) context() trace.Context {
	ctx, _ := trace.Parse(string(r.trace))
	return ctx
}

// refusal is a request the proxy answers with a status of its own and
// then hangs up on: one out of protocol (400), or one it does not proxy
// (405).
type refusal struct {
	status string // "400 Bad Request"
	text   string
}

func (r *refusal) Error() string { return "squid: " + r.status + ": " + r.text }

var (
	hdrHost         = []byte("Host")
	hdrCacheControl = []byte("Cache-Control")
	hdrContentType  = []byte("Content-Type")
	hdrTrace        = []byte(trace.Header)
	tokenNoCache    = []byte("no-cache")
)

// readRequest reads the next request on c into req: the request line and
// the header block, in place. It accepts a GET of HTTP/1.1 or 1.0
// without a body. Any other method is a *refusal of 405; a request out
// of protocol — a malformed line, a line past c's read buffer, a target
// appendKey refuses, a body or a Transfer-Encoding, a second Host, an
// HTTP/1.1 request without one — is a *refusal of 400. Every error breaks c,
// so nothing is answered on a request read half-way; any other error
// means the client hung up.
func readRequest(c *wire.Conn, req *request) error {
	line, err := c.ReadLine()
	if err != nil {
		return badRequest(err)
	}
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	http10 := string(proto) == "HTTP/1.0"
	if !ok1 || !ok2 || !http10 && string(proto) != "HTTP/1.1" {
		return refuse(c, "400 Bad Request", "malformed request line %q", line)
	}
	get := string(method) == "GET"
	// The line is gone with the next read: the key is copied out first.
	req.key, err = appendKey(req.key[:0], target)
	hosts := 0
	req.trace, req.noCache = req.trace[:0], false
	h, herr := c.ReadHeader(math.MaxInt64, func(name, value []byte) {
		switch {
		case bytes.EqualFold(name, hdrHost):
			hosts++
		case bytes.EqualFold(name, hdrCacheControl):
			req.noCache = req.noCache || bytes.Contains(value, tokenNoCache)
		case bytes.EqualFold(name, hdrTrace):
			req.trace = append(req.trace[:0], value...)
		}
	})
	switch {
	case herr != nil:
		return badRequest(herr)
	case !get:
		return refuse(c, "405 Method Not Allowed", "squid: only GET is proxied")
	case err != nil:
		return refuse(c, "400 Bad Request", "%v", err)
	case h.Length > 0:
		return refuse(c, "400 Bad Request", "a GET carries no body")
	case hosts > 1 || !http10 && hosts != 1:
		return refuse(c, "400 Bad Request", "want exactly one Host field, got %d", hosts)
	}
	// An HTTP/1.0 connection ends after one answer, Keep-Alive or not.
	req.close = h.Close || http10
	return nil
}

// refuse breaks c with a refusal of status.
func refuse(c *wire.Conn, status, format string, args ...any) error {
	return c.Fail(&refusal{status: status, text: fmt.Sprintf(format, args...)})
}

// badRequest turns a read that broke c on something the client sent — a
// line past the read buffer, a header block out of protocol — into a
// 400. A client that hung up gets no answer.
func badRequest(err error) error {
	var pe *wire.ProtocolError
	switch {
	case errors.Is(err, bufio.ErrBufferFull):
		return &refusal{status: "400 Bad Request", text: "a line longer than the read buffer"}
	case errors.As(err, &pe):
		return &refusal{status: "400 Bad Request", text: pe.Msg}
	}
	return err
}

// appendKey appends the cache key of a request target to dst: the path
// and, after a "?", the query, as net/http's r.URL.Path and RawQuery hold
// them, for the origin form ("/path?query") and the absolute form
// ("http://host:port/path?query") alike. A path with a percent escape is
// unescaped as net/http unescapes it; that path is rare, and it
// allocates. A target net/http would read differently or refuse is
// refused: a control character, another scheme, an authority that is
// more than a host name and a port, a path that does not start with "/",
// a bad escape.
func appendKey(dst, target []byte) ([]byte, error) {
	for _, ch := range target {
		if ch < ' ' || ch == 0x7f {
			return dst, fmt.Errorf("control character in target %q", target)
		}
	}
	path, query, _ := bytes.Cut(target, []byte("?"))
	if len(path) >= len("http://") && bytes.EqualFold(path[:len("http://")], []byte("http://")) {
		host := path[len("http://"):]
		path = nil
		if i := bytes.IndexByte(host, '/'); i >= 0 {
			host, path = host[:i], host[i:]
		}
		if !hostPort(host) {
			return dst, fmt.Errorf("bad host in target %q", target)
		}
	}
	if len(path) == 0 || path[0] != '/' {
		return dst, fmt.Errorf("target %q is neither a path nor an http URL", target)
	}
	if bytes.IndexByte(path, '%') >= 0 {
		p, err := url.PathUnescape(string(path))
		if err != nil {
			return dst, err
		}
		dst = append(dst, p...)
	} else {
		dst = append(dst, path...)
	}
	if len(query) > 0 {
		dst = append(append(dst, '?'), query...)
	}
	return dst, nil
}

// hostPort reports whether b is a host name of letters, digits, '.', '-',
// '_' and '~', optionally followed by ':' and a port of digits.
func hostPort(b []byte) bool {
	host, port, _ := bytes.Cut(b, []byte(":"))
	for _, ch := range host {
		if !('a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || '0' <= ch && ch <= '9' || bytes.IndexByte([]byte(".-_~"), ch) >= 0) {
			return false
		}
	}
	for _, ch := range port {
		if ch < '0' || ch > '9' {
			return false
		}
	}
	return true
}
