package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"lobster/internal/retry"
	"lobster/internal/trace"
)

// recordingConn keeps what was written to it and answers each write
// with the next of its replies.
type recordingConn struct {
	cannedConn
	sent    bytes.Buffer
	answers []string
}

func (c *recordingConn) Write(p []byte) (int, error) {
	if len(c.answers) > 0 {
		c.replies.Reset([]byte(c.answers[0]))
		c.answers = c.answers[1:]
	}
	return c.sent.Write(p)
}

// client returns a client of base whose n-th dial answers with the n-th
// of replies, a "|"-separated list of answers, and the connections it
// dialed.
func client(t *testing.T, base string, replies ...string) (*HTTPClient, *[]*recordingConn) {
	t.Helper()
	c, err := NewHTTPClient(base)
	if err != nil {
		t.Fatal(err)
	}
	var dialed []*recordingConn
	c.SetDial(func(string) (net.Conn, error) {
		if len(dialed) == len(replies) {
			return nil, errors.New("no more replies")
		}
		rc := &recordingConn{cannedConn: cannedConn{replies: bytes.NewReader(nil)}, answers: strings.Split(replies[len(dialed)], "|")}
		dialed = append(dialed, rc)
		return rc, nil
	}, 0)
	return c, &dialed
}

func readAll(r io.Reader, n int64) error {
	_, err := io.ReadFull(r, make([]byte, n))
	return err
}

// TestHTTPClientRequest: the request carries the base's path before the
// target, the Host, no-cache when fresh and Lobster-Trace on a WithTrace
// copy, which shares the parked connection; a target that would break the
// request line is refused before anything is sent.
func TestHTTPClientRequest(t *testing.T) {
	ok := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
	c, dialed := client(t, "http://proxy.invalid:3128/base/", ok+"|"+ok)
	ctx := trace.Context{TraceID: 1, SpanID: 2, Sampled: true}
	if err := c.Get([]byte("/a?x=1"), false, 2, nil, readAll); err != nil {
		t.Fatal(err)
	}
	if err := c.WithTrace(ctx).Get([]byte("/b"), true, 2, nil, readAll); err != nil {
		t.Fatal(err)
	}
	want := "GET /base/a?x=1 HTTP/1.1\r\nHost: proxy.invalid:3128\r\n\r\n" +
		"GET /base/b HTTP/1.1\r\nHost: proxy.invalid:3128\r\nCache-Control: no-cache\r\n" + trace.Header + ": " + ctx.Encode() + "\r\n\r\n"
	if len(*dialed) != 1 || (*dialed)[0].sent.String() != want || c.Parked() != 1 {
		t.Errorf("%d dials, %d parked, sent %q; want 1, 1, %q", len(*dialed), c.Parked(), (*dialed)[0].sent.String(), want)
	}
	if c.WithTrace(trace.Context{}) != c {
		t.Error("an invalid context copied the client")
	}
	if err := c.Get([]byte("/a b"), false, 2, nil, readAll); err == nil || len(*dialed) != 1 {
		t.Errorf("a target with a blank: %v after %d dials", err, len(*dialed))
	}
}

// TestHTTPClientRefusals: a refused status, and a body its caller fails
// or leaves part unread, fail the fetch and hang up (frontier's client
// tests cover the answers out of protocol); a 5xx is the one refusal
// worth another attempt.
func TestHTTPClientRefusals(t *testing.T) {
	for _, tc := range []struct {
		name, reply string
		body        func(io.Reader, int64) error
		want        string
		permanent   bool
	}{
		{"a 404", "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", readAll, "status 404 Not Found", true},
		{"a 503", "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n", readAll, "status 503", false},
		{"a body left unread", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi", func(io.Reader, int64) error { return nil }, "left unread", false},
		{"a body that fails", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi", func(io.Reader, int64) error { return retry.Permanent(errors.New("sink full")) }, "sink full", true},
	} {
		c, dialed := client(t, "http://proxy.invalid", tc.reply)
		err := c.Get([]byte("/x"), false, 2, nil, tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.want) || retry.IsPermanent(err) != tc.permanent {
			t.Errorf("%s: %v; want an error naming %q, permanent %v", tc.name, err, tc.want, tc.permanent)
		}
		if c.Parked() != 0 || len(*dialed) != 1 || !(*dialed)[0].closed {
			t.Errorf("%s: %d parked, %d dials; want the one connection hung up", tc.name, c.Parked(), len(*dialed))
		}
	}
}
