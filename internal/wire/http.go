package wire

import "bytes"

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
