// Package wire is what the three protocols of this module share
// underneath their messages. chirp and xrootd are text protocols over TCP
// in which every request is one line, every reply starts with one status
// line — the command's answer, or "-1 <error>" — and payload bytes follow
// a size line. wq sends size-framed JSON: a size line, then exactly that
// many bytes of one JSON value (ReadFrame, SendFrame). HTTP/1.1 rides a
// Conn too (ProtoHTTP): HTTPClient, the one GET client that frontier's
// conditions fetch, parrot's CVMFS fetches and the squid's origin fetch
// share, parks its connections in a Pool, and the squid answers its
// clients on a Server of its own; both read the status or request line
// with ReadLine and the header block with ReadHeader. Each protocol used
// to carry a copy of each piece here, and the copies drifted (DESIGN.md
// §10, "One wire"); what is left in each package is its commands.
//
// The package holds the one copy of: the connection that poisons itself
// on a transport failure (Conn), the in-place line read and field cut
// (ReadLine, Fields), the status convention (ReadStatus on the client,
// ReplyError on the server), the size-line parse (ParseSize), the payload
// that follows a size or request line (ReadPayload), the bounded message
// frame (ReadFrame, SendFrame), the HTTP/1.1 header block (ReadHeader)
// and GET (HTTPClient), the error pair a peer's answer turns into
// (ServerError, ProtocolError), the parked-connection list (Pool), and the
// server's accept and request loops (Server, ServeLines).
package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"unicode"

	"lobster/internal/retry"
)

// Conn is one connection of a wire protocol: the socket and its buffered
// reader and writer. Any transport failure — a send, a flush, a read, a
// short payload — closes it and marks it broken (Fail): the protocol has
// no point to resynchronise at, so a half-finished exchange poisons every
// later one, and each later operation fails at once with the error Err
// returns. A nil Conn is broken.
//
// One goroutine may read while another writes — wq runs a receive loop
// and a send loop on each connection — and Fail, Broken and Err are safe
// from any goroutine, so a third can hang up. Two writers must take turns
// under a lock of their own.
type Conn struct {
	Net net.Conn
	R   *bufio.Reader
	W   *bufio.Writer

	proto  string // "chirp", "xrootd", "wq" or "http": the prefix of every error text
	broken atomic.Bool

	// The frame codec's state (frame.go), each half owned by its side:
	// body and dec by the reader, out and enc by the writer. body is an
	// HTTP answer's body too (HTTPClient.Get).
	body io.LimitedReader
	dec  *json.Decoder
	out  bytes.Buffer
	enc  *json.Encoder

	// sink is ReadPayload's, the reader's too: kept here, it costs a
	// payload no allocation.
	sink sinkWriter
}

// NewConn wraps nc for protocol proto with buffers of the given sizes.
func NewConn(proto string, nc net.Conn, rsize, wsize int) *Conn {
	return &Conn{Net: nc, R: bufio.NewReaderSize(nc, rsize), W: bufio.NewWriterSize(nc, wsize), proto: proto}
}

var errBroken = errors.New("connection broken by an earlier failure")

// Err is what an operation on c fails with before it starts: nil while c
// is usable, an error the retry layer retries once a transport failure has
// broken it.
func (c *Conn) Err() error {
	if c.Broken() {
		return errBroken
	}
	return nil
}

// Broken reports whether a transport failure has poisoned c; a broken
// connection is already closed and must be replaced.
func (c *Conn) Broken() bool { return c == nil || c.broken.Load() }

// Fail closes c after a transport failure and returns err unchanged.
// Fail(nil) hangs up with nothing to report: it is how a goroutine that
// neither reads nor writes c ends it, since Close writes.
func (c *Conn) Fail(err error) error {
	if c.broken.CompareAndSwap(false, true) {
		c.Net.Close()
	}
	return err
}

// Close says quit and hangs up. HTTP has no quit — a request line the
// peer cannot parse earns a 400 — so a connection of protocol "http" only
// hangs up. A broken connection is already closed; Close is then a no-op.
func (c *Conn) Close() error {
	if c.broken.Swap(true) {
		return nil
	}
	if c.proto != ProtoHTTP {
		c.W.WriteString("quit\n")
		c.W.Flush()
	}
	return c.Net.Close()
}

// ProtoHTTP names an HTTP/1.1 keep-alive connection: HTTPClient's GETs
// ride a Conn and a Pool like the line protocols, with their own request
// and response framing.
const ProtoHTTP = "http"

// Send writes cmd, which may be built in W.AvailableBuffer or be empty,
// and flushes it with whatever W already held.
func (c *Conn) Send(cmd []byte) error {
	if err := c.Err(); err != nil {
		return err
	}
	c.W.Write(cmd)
	if err := c.W.Flush(); err != nil {
		return c.Fail(fmt.Errorf("%s: sending request: %w", c.proto, err))
	}
	return nil
}

// readLine reads one line in place from r's buffer and returns it without
// its line ending, valid until the next read. A line that outgrows the
// buffer is bufio.ErrBufferFull: the peer is not speaking the protocol,
// and the reader hangs up instead of holding whatever it sends.
//
// The line protocols' ending is every "\r" and "\n" at the end of the
// line. HTTP's is the "\n" and at most one "\r" before it (RFC 9112
// section 2.2): a "\r" left inside the line is a bare CR, which whatever
// parses the line refuses.
func readLine(r *bufio.Reader, http bool) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if http {
		line = line[:len(line)-1]
		return bytes.TrimSuffix(line, []byte("\r")), nil
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// ReadLine reads a line in place (see readLine); a failure breaks c.
func (c *Conn) ReadLine() ([]byte, error) {
	line, err := readLine(c.R, c.proto == ProtoHTTP)
	if err != nil {
		return nil, c.Fail(fmt.Errorf("%s: reading response: %w", c.proto, err))
	}
	return line, nil
}

// ReadStatus reads a reply's status line. One whose first field is "-1"
// is the peer's error, a *ServerError on a connection that stays usable:
// the peer answered in protocol, and no payload follows an error line.
// Only the whole field counts — "-15" is not an error line.
func (c *Conn) ReadStatus() ([]byte, error) {
	line, err := c.ReadLine()
	if err != nil {
		return nil, err
	}
	if f, rest := nextField(line); string(f) == "-1" {
		msg := string(bytes.TrimSpace(rest))
		if msg == "" {
			msg = "unspecified error"
		}
		return nil, &ServerError{Proto: c.proto, Msg: msg}
	}
	return line, nil
}

// ParseSize reads b as a size: a decimal of digits alone, no sign, at most
// max. Anything else — a negative number, one past max or past int64, a
// trailing field — is a *ProtocolError and breaks c, since the payload the
// peer meant can no longer be told from the reply after it.
func (c *Conn) ParseSize(b []byte, max int64) (int64, error) {
	n, ok := parseSize(b, max)
	if !ok {
		return 0, c.Protocol("bad size response %q", b)
	}
	return n, nil
}

// parseSize reads b as a decimal of digits alone, at most max.
func parseSize(b []byte, max int64) (int64, bool) {
	n, ok := int64(0), len(b) > 0
	for _, ch := range b {
		d := int64(ch - '0')
		if ok = '0' <= ch && ch <= '9' && d <= max && n <= (max-d)/10; !ok {
			break
		}
		n = n*10 + d
	}
	return n, ok
}

// ReadSize is ReadStatus and ParseSize: the reply of a command that
// answers with a size.
func (c *Conn) ReadSize(max int64) (int64, error) {
	line, err := c.ReadStatus()
	if err != nil {
		return 0, err
	}
	return c.ParseSize(line, max)
}

// Protocol records a reply out of protocol: a *ProtocolError, and c broken.
func (c *Conn) Protocol(format string, args ...any) error {
	return c.Fail(&ProtocolError{Proto: c.proto, Msg: fmt.Sprintf(format, args...)})
}

// ReplyError answers a request with its error in protocol: "-1 <error>",
// the error flattened onto one line.
func ReplyError(w *bufio.Writer, err error) {
	w.WriteString("-1 ")
	w.WriteString(strings.ReplaceAll(err.Error(), "\n", " "))
	w.WriteByte('\n')
}

// Fields cuts line into its whitespace-delimited fields the way
// strings.Fields delimits them, in place, appending them to dst up to its
// capacity: a command that takes at most n fields passes an array of n+1,
// so one field too many is seen and refused without allocating.
func Fields(line []byte, dst [][]byte) [][]byte {
	for f, rest := nextField(line); len(f) > 0 && len(dst) < cap(dst); f, rest = nextField(rest) {
		dst = append(dst, f)
	}
	return dst
}

func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// ServerError is an error the peer reported on a "-1" line. It is
// permanent under the retry package — the peer answered, and asking again
// gets the same answer — and the connection stays usable.
type ServerError struct {
	Proto string
	Msg   string
}

func (e *ServerError) Error() string { return e.Proto + ": server error: " + e.Msg }

// Is matches retry.ErrPermanent, and ErrNotExist for a missing file.
func (e *ServerError) Is(target error) bool {
	return target == retry.ErrPermanent || (target == ErrNotExist && e.notExist())
}

// notExist reports whether the message describes a missing file. The
// protocols carry no error codes, only text, so this matches what the
// chirp backends and the xrootd data server say.
func (e *ServerError) notExist() bool {
	return strings.Contains(e.Msg, "no such file") ||
		strings.Contains(e.Msg, "not exist") ||
		strings.Contains(e.Msg, "not found")
}

// ErrNotExist matches server errors for missing files, so a caller can
// treat a repeated delete as done: a retried unlink whose first attempt
// landed but whose reply was lost reports it.
var ErrNotExist = errors.New("file does not exist")

// ProtocolError is a reply that is neither an answer nor a "-1" line:
// permanent — the peer is not speaking the protocol — and the connection
// is broken.
type ProtocolError struct {
	Proto string
	Msg   string
}

func (e *ProtocolError) Error() string { return e.Proto + ": protocol error: " + e.Msg }

// Is matches retry.ErrPermanent.
func (e *ProtocolError) Is(target error) bool { return target == retry.ErrPermanent }
