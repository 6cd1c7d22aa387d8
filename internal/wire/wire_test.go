package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"lobster/internal/retry"
)

// cannedConn is a peer that answers with the next bytes of a fixed reply
// stream and hangs up when they run out.
type cannedConn struct {
	net.Conn
	replies *bytes.Reader
	closed  bool
}

func (c *cannedConn) Read(p []byte) (int, error)  { return c.replies.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *cannedConn) Close() error                { c.closed = true; return nil }
func (c *cannedConn) SetDeadline(time.Time) error { return nil }

func canned(replies string, rsize int) (*Conn, *cannedConn) {
	nc := &cannedConn{replies: bytes.NewReader([]byte(replies))}
	return NewConn("test", nc, rsize, 64), nc
}

// TestFieldsMatchStringsFields: a line's fields are delimited exactly as
// strings.Fields delimits them — ASCII and Unicode spaces, invalid UTF-8
// — and a line with more fields than the array holds fills it.
func TestFieldsMatchStringsFields(t *testing.T) {
	for _, line := range []string{
		"", " ", "one", "getfile /a", "  putfile   /a\t12  ", "stat /a crc", "a b c d e",
		" \v\f lead", "ls /x", "x y\u0085z", "\v\fquit\r", "a b  c",
		"\xff\xfe x", "open\u0085/f", "a b c d e f g",
	} {
		var buf [5][]byte
		var got []string
		for _, f := range Fields([]byte(line), buf[:0]) {
			got = append(got, string(f))
		}
		want := strings.Fields(line)
		if len(want) > len(buf) {
			want = want[:len(buf)]
		}
		if !slices.Equal(got, want) {
			t.Errorf("Fields(%q) = %q, strings.Fields gives %q", line, got, want)
		}
	}
	line := []byte("read /store/a.root 0 4096")
	var buf [5][]byte
	if n := testing.AllocsPerRun(100, func() { Fields(line, buf[:0]) }); n != 0 {
		t.Errorf("Fields: %v allocs/op, want 0", n)
	}
}

// TestReadStatus pins the status convention: "-1" as the whole first
// field is the peer's error on a usable connection, anything else is the
// answer, and a size is digits alone up to the caller's bound.
func TestReadStatus(t *testing.T) {
	for _, tc := range []struct {
		reply  string
		max    int64
		size   int64
		server string // the ServerError's Msg; "" when none
		proto  bool   // a ProtocolError
	}{
		{reply: "0\n", max: 10, size: 0},
		{reply: "10\r\n", max: 10, size: 10},
		{reply: "0007\n", max: 10, size: 7},
		{reply: "11\n", max: 10, proto: true},
		{reply: "9223372036854775807\n", max: 1<<63 - 1, size: 1<<63 - 1},
		{reply: "9223372036854775808\n", max: 1<<63 - 1, proto: true},
		{reply: "99999999999999999999\n", max: 1<<63 - 1, proto: true},
		{reply: "-1 no such file /f\n", max: 10, server: "no such file /f"},
		{reply: "-1\n", max: 10, server: "unspecified error"},
		{reply: "-1\tmsg \n", max: 10, server: "msg"},
		{reply: "  -1  spaced out\n", max: 10, server: "spaced out"},
		{reply: "-7\n", max: 10, proto: true},
		{reply: "-15\n", max: 10, proto: true},
		{reply: "-100 oops\n", max: 10, proto: true},
		{reply: "+5\n", max: 10, proto: true},
		{reply: "5 trailing\n", max: 10, proto: true},
		{reply: " 5\n", max: 10, proto: true},
		{reply: "\n", max: 10, proto: true},
	} {
		c, nc := canned(tc.reply, 64)
		n, err := c.ReadSize(tc.max)
		var se *ServerError
		var pe *ProtocolError
		switch {
		case tc.server != "":
			if !errors.As(err, &se) || se.Msg != tc.server || c.Broken() {
				t.Errorf("%q: %v (broken %v); want server error %q on a usable connection", tc.reply, err, c.Broken(), tc.server)
			}
		case tc.proto:
			if !errors.As(err, &pe) || !c.Broken() || !nc.closed {
				t.Errorf("%q: %d, %v (broken %v); want a protocol error that hangs up", tc.reply, n, err, c.Broken())
			}
		default:
			if err != nil || n != tc.size || c.Broken() {
				t.Errorf("%q: %d, %v; want %d", tc.reply, n, err, tc.size)
			}
		}
		if err != nil && !retry.IsPermanent(err) {
			t.Errorf("%q: %v is retryable; the peer answered", tc.reply, err)
		}
	}
}

// TestErrorText: each error names its protocol, and a missing file is
// told from any other server error by its text.
func TestErrorText(t *testing.T) {
	se := &ServerError{Proto: "chirp", Msg: "chirp: reading /x: open /srv/x: no such file or directory"}
	if se.Error() != "chirp: server error: chirp: reading /x: open /srv/x: no such file or directory" || !errors.Is(se, ErrNotExist) {
		t.Errorf("%q: ErrNotExist %v", se, errors.Is(se, ErrNotExist))
	}
	for _, msg := range []string{"no such file /f", "file does not exist", "not found"} {
		if !errors.Is(&ServerError{Proto: "xrootd", Msg: msg}, ErrNotExist) {
			t.Errorf("%q is not ErrNotExist", msg)
		}
	}
	if quota := (&ServerError{Proto: "chirp", Msg: "disk quota exceeded"}); errors.Is(quota, ErrNotExist) {
		t.Error("a quota error matched ErrNotExist")
	}
	pe := &ProtocolError{Proto: "xrootd", Msg: `bad size response "-7"`}
	if pe.Error() != `xrootd: protocol error: bad size response "-7"` || errors.Is(pe, ErrNotExist) {
		t.Errorf("%q", pe)
	}
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	ReplyError(w, errors.New("two\nlines"))
	w.Flush()
	if out.String() != "-1 two lines\n" {
		t.Errorf("ReplyError wrote %q", out.String())
	}
}

// TestOverlongLineBreaksConn: a line that outgrows the reader ends the
// connection, and what it held is not kept.
func TestOverlongLineBreaksConn(t *testing.T) {
	c, nc := canned(strings.Repeat("x", 100)+"\n5\n", 16)
	if _, err := c.ReadSize(10); !errors.Is(err, bufio.ErrBufferFull) || !c.Broken() || !nc.closed {
		t.Fatalf("overlong line: %v, broken %v", err, c.Broken())
	}
	if _, err := c.ReadSize(10); err == nil {
		t.Fatal("a broken connection read on")
	}
	if err := c.Send([]byte("next\n")); err == nil || retry.IsPermanent(err) {
		t.Fatalf("send on a broken connection: %v, want a retryable error", err)
	}
}

// FuzzLine: whatever a peer answers, reading its status and size line
// never panics, "-1" is an error line only as a whole field, and a size
// is returned only when the line is digits alone within the bound — a
// negative or overflowing one is a protocol error that hangs up.
func FuzzLine(f *testing.F) {
	for _, seed := range []string{
		"0", "4096", "-1", "-1 no such file", "-15", "-7", "-100 oops", "5 trailing",
		"9223372036854775807", "9223372036854775808", "18446744073709551616", "+5", " -1 x", "\r",
	} {
		f.Add([]byte(seed+"\n"), int64(1<<31))
	}
	f.Fuzz(func(t *testing.T, reply []byte, max int64) {
		if max < 0 {
			max = -max
		}
		if max < 0 { // it was MinInt64
			max = 0
		}
		c, nc := canned(string(reply), 64)
		n, err := c.ReadSize(max)
		raw, _, complete := bytes.Cut(reply, []byte("\n"))
		if !complete || len(raw)+1 > 64 {
			if err == nil {
				t.Fatalf("%q: size %d from a line that never ended in the buffer", reply, n)
			}
			return
		}
		line := bytes.TrimRight(raw, "\r")
		first, _ := nextField(line)
		var se *ServerError
		if isErr := errors.As(err, &se); isErr != (string(first) == "-1") {
			t.Fatalf("%q: server error %v, first field %q", line, isErr, first)
		}
		if se != nil {
			if c.Broken() {
				t.Fatalf("%q: a server error broke the connection", line)
			}
			return
		}
		want, perr := strconv.ParseUint(string(line), 10, 63)
		ok := perr == nil && len(line) > 0 && line[0] != '+' && int64(want) <= max
		var pe *ProtocolError
		switch {
		case ok && (err != nil || n != int64(want)):
			t.Fatalf("%q (max %d): %d, %v; want %d", line, max, n, err, want)
		case !ok && (!errors.As(err, &pe) || !c.Broken() || !nc.closed):
			t.Fatalf("%q (max %d): %d, %v; want a protocol error that hangs up", line, max, n, err)
		}
	})
}

// TestServerTrackAfterClose: a connection accepted while the server
// closes is hung up and not left in the table Close has already swept.
func TestServerTrackAfterClose(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(lis, func(net.Conn) {})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ours, theirs := net.Pipe()
	defer ours.Close()
	if s.track(theirs) || s.Conns() != 0 {
		t.Error("a closed server kept the connection in its table")
	}
	if _, err := theirs.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("connection left open by a closed server: write = %v", err)
	}
}

// TestReadHeader: the one HTTP header reader frontier's client and the
// squid's request reader share. What it reads itself is not handed on;
// a block out of protocol is a protocol error that hangs up.
func TestReadHeader(t *testing.T) {
	many := strings.Repeat("X: y\r\n", maxHeaderLines+1)
	for _, tc := range []struct {
		name, block string
		want        HTTPHeader
		fields      string // what fn saw, "name=value;" each
		bad         bool
	}{
		{"fields", "Host: s\r\nX-Cache:  HIT \r\nContent-Length: 12\r\n\r\n", HTTPHeader{Length: 12}, "Host=s;X-Cache=HIT;", false},
		{"no length", "\r\n", HTTPHeader{Length: -1}, "", false},
		{"a repeated length", "Content-Length: 3\r\ncontent-length: 3\r\n\r\n", HTTPHeader{Length: 3}, "", false},
		{"close in a list", "Connection: keep-alive, Close\r\n\r\n", HTTPHeader{Length: -1, Close: true}, "", false},
		{"two Connection fields", "Connection: upgrade\r\nConnection: close\r\n\r\n", HTTPHeader{Length: -1, Close: true}, "", false},
		{"closed as a substring", "Connection: closed\r\n\r\n", HTTPHeader{Length: -1}, "", false},
		{"two lengths", "Content-Length: 3\r\nContent-Length: 4\r\n\r\n", HTTPHeader{}, "", true},
		{"one length, two spellings", "Content-Length: 3\r\nContent-Length: 03\r\n\r\n", HTTPHeader{}, "", true},
		{"a length past max", "Content-Length: 101\r\n\r\n", HTTPHeader{}, "", true},
		{"a signed length", "Content-Length: +3\r\n\r\n", HTTPHeader{}, "", true},
		{"chunked", "Transfer-Encoding: chunked\r\n\r\n", HTTPHeader{}, "", true},
		{"no colon", "Host s\r\n\r\n", HTTPHeader{}, "", true},
		{"a space in the name", "Host : s\r\n\r\n", HTTPHeader{}, "", true},
		{"folded", "X: a\r\n b\r\n\r\n", HTTPHeader{}, "", true},
		{"a bare CR", "X: a\rb\r\n\r\n", HTTPHeader{}, "", true},
		{"a CR before the CRLF", "X: a\r\r\n\r\n", HTTPHeader{}, "", true},
		{"too many lines", many + "\r\n", HTTPHeader{}, "", true},
		{"cut short", "Host: s\r\n", HTTPHeader{}, "", true},
	} {
		c, nc := canned(tc.block, 64)
		c.proto = ProtoHTTP
		var fields string
		h, err := c.ReadHeader(100, func(name, value []byte) { fields += string(name) + "=" + string(value) + ";" })
		if tc.bad {
			if err == nil || !c.Broken() || !nc.closed {
				t.Errorf("%s: %+v, %v; want an error that hangs up", tc.name, h, err)
			}
			continue
		}
		if err != nil || h != tc.want || fields != tc.fields || c.Broken() {
			t.Errorf("%s: %+v, %v, fields %q; want %+v, %q", tc.name, h, err, fields, tc.want, tc.fields)
		}
	}
}
