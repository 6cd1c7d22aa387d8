// Package frontier implements a conditions-data service modelled on the CMS
// Frontier system: detector calibration and alignment payloads, keyed by
// experiment run and tag, distributed from a central server through the same
// HTTP proxy hierarchy that serves CVMFS (package squid).
//
// Payloads for a given (tag, run) interval-of-validity are immutable, so
// responses carry cache headers that let squid absorb nearly all load — the
// paper's analysis jobs hit Frontier once per task for the run being
// processed.
//
// The Service is an origin like any other and answers through net/http;
// the squid in front of it answers on internal/wire.
// The Client is the worker's end of that once-per-task GET, so it is
// built to be cheap: one keep-alive connection parked in a wire.Pool
// between tasks, the request written and the response read in place, and
// one deadline per fetch (DESIGN.md §10, "One wire").
package frontier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/retry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Payload is one conditions record with an inclusive run interval of
// validity.
type Payload struct {
	Tag      string `json:"tag"`
	FirstRun int    `json:"first_run"`
	LastRun  int    `json:"last_run"`
	Data     []byte `json:"data"`
}

// Service stores conditions payloads and serves them over HTTP at
// /frontier/payload?tag=<tag>&run=<run>. Safe for concurrent use.
type Service struct {
	mu       sync.RWMutex
	payloads map[string][]Payload // tag → payloads sorted by FirstRun
	requests atomic.Int64
}

// NewService returns an empty conditions service.
func NewService() *Service {
	return &Service{payloads: make(map[string][]Payload)}
}

// Publish registers a payload. Overlapping intervals for one tag are
// rejected: a run must resolve to exactly one payload.
func (s *Service) Publish(p Payload) error {
	if p.Tag == "" {
		return fmt.Errorf("frontier: payload needs a tag")
	}
	if p.LastRun < p.FirstRun {
		return fmt.Errorf("frontier: invalid run interval [%d,%d]", p.FirstRun, p.LastRun)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.payloads[p.Tag]
	for _, q := range list {
		if p.FirstRun <= q.LastRun && q.FirstRun <= p.LastRun {
			return fmt.Errorf("frontier: tag %s: interval [%d,%d] overlaps [%d,%d]",
				p.Tag, p.FirstRun, p.LastRun, q.FirstRun, q.LastRun)
		}
	}
	list = append(list, p)
	sort.Slice(list, func(i, j int) bool { return list[i].FirstRun < list[j].FirstRun })
	s.payloads[p.Tag] = list
	return nil
}

// Lookup returns the payload valid for (tag, run).
func (s *Service) Lookup(tag string, run int) (*Payload, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.payloads[tag] {
		p := &s.payloads[tag][i]
		if run >= p.FirstRun && run <= p.LastRun {
			return p, nil
		}
	}
	return nil, fmt.Errorf("frontier: no payload for tag %s run %d", tag, run)
}

// Requests returns the number of HTTP payload requests served.
func (s *Service) Requests() int64 { return s.requests.Load() }

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/frontier/payload" {
		http.NotFound(w, r)
		return
	}
	tag := r.URL.Query().Get("tag")
	run, err := strconv.Atoi(r.URL.Query().Get("run"))
	if err != nil {
		http.Error(w, "frontier: bad run number", http.StatusBadRequest)
		return
	}
	p, err := s.Lookup(tag, run)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	body, err := json.Marshal(p)
	if err != nil {
		http.Error(w, "frontier: encoding payload: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.requests.Add(1)
	// Valid payloads never change: cacheable by the proxy layer. The
	// length is announced, so a payload of any size reaches a client
	// that reads only a Content-Length body (Client) unchunked.
	h := w.Header()
	h.Set("Cache-Control", "public, max-age=86400")
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)+1))
	w.Write(append(body, '\n'))
}

// Client fetches conditions through an HTTP base URL (direct or proxy).
//
// A conditions GET is the one request of an analysis task that every task
// makes, so the client speaks just enough HTTP/1.1 to make it cheap: it
// writes the request line and headers itself, reads the status line in
// place with wire.Conn.ReadLine and the headers with wire.Conn.ReadHeader,
// and reads a Content-Length body of at most maxBody into a pooled
// buffer. Connections are kept alive and parked in a wire.Pool between
// fetches, so a hot task dials nothing. A response it does not read —
// chunked, without a length or with two that differ, too long, not a 200,
// a payload that does not decode — fails the fetch and hangs the
// connection up; nothing half-read is ever parked. Every fetch has one
// deadline, fetchTimeout, whether or not it is traced.
//
// The zero value with Base set is ready to use; the connections are made
// on the first fetch. Close hangs up the parked ones. Safe for concurrent
// use.
type Client struct {
	Base string

	once    sync.Once
	err     error  // Base is not an http URL
	addr    string // dial address, host:port
	host    string // the Host header
	path    string // Base's path, without a trailing slash
	conns   *wire.Pool[*wire.Conn]
	timeout time.Duration // fetchTimeout; tests shorten it
}

const (
	// fetchTimeout bounds one fetch, from the dial or the reuse of a
	// parked connection to the last byte of the body: the 30 s every
	// HTTP client of a worker gets, so a proxy that accepts and never
	// answers costs a slot that long and no longer.
	fetchTimeout = 30 * time.Second
	// maxBody bounds the payload a response may announce. Conditions
	// payloads are calibration constants, kilobytes at most; a length
	// past this is not a payload this client reads.
	maxBody = 1 << 20
)

func (c *Client) init() {
	u, err := url.Parse(c.Base)
	if err == nil && (u.Scheme != "http" || u.Host == "") {
		err = fmt.Errorf("not an http URL")
	}
	if err != nil {
		c.err = fmt.Errorf("frontier: base %q: %v", c.Base, err)
		return
	}
	c.addr, c.host, c.path = u.Host, u.Host, strings.TrimRight(u.Path, "/")
	if u.Port() == "" {
		c.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	if c.timeout == 0 {
		c.timeout = fetchTimeout
	}
	timeout := c.timeout
	c.conns = newPool(func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) })
}

// newPool returns the pool of a client's connections, which dial makes.
func newPool(dial func(addr string) (net.Conn, error)) *wire.Pool[*wire.Conn] {
	return wire.NewPool(nil, "",
		func(addr string) (*wire.Conn, error) {
			nc, err := dial(addr)
			if err != nil {
				return nil, err
			}
			return wire.NewConn(wire.ProtoHTTP, nc, 4<<10, 1<<10), nil
		},
		func(wc *wire.Conn) *wire.Conn { return wc })
}

// Fetch returns the payload for (tag, run).
func (c *Client) Fetch(tag string, run int) (*Payload, error) {
	return c.FetchTraced(tag, run, trace.Context{})
}

// FetchTraced is Fetch for a traced task: the request carries ctx in the
// Lobster-Trace header, so the proxy's span chains under the caller's.
func (c *Client) FetchTraced(tag string, run int, ctx trace.Context) (*Payload, error) {
	c.once.Do(c.init)
	if c.err != nil {
		return nil, c.err
	}
	// One deadline for the whole fetch: a parked connection found stale
	// is replaced by a dial that gets what is left of it, not another 30 s.
	deadline := time.Now().Add(c.timeout)
	conn, err := c.conns.Take(c.addr, func(conn *wire.Conn) error {
		conn.Net.SetDeadline(deadline)
		if err := conn.Send(c.appendRequest(conn.W.AvailableBuffer(), tag, run, ctx)); err != nil {
			return err
		}
		return readStatus(conn)
	})
	if err != nil {
		return nil, fmt.Errorf("frontier: fetching %s/%d: %w", tag, run, err)
	}
	p, err := c.readBody(conn)
	if err != nil {
		return nil, fmt.Errorf("frontier: fetching %s/%d: %w", tag, run, err)
	}
	return p, nil
}

// appendRequest appends the GET for (tag, run) to b. The query keeps the
// order the proxy has always cached it under.
func (c *Client) appendRequest(b []byte, tag string, run int, ctx trace.Context) []byte {
	b = append(b, "GET "...)
	b = append(b, c.path...)
	b = append(b, "/frontier/payload?run="...)
	b = strconv.AppendInt(b, int64(run), 10)
	b = append(b, "&tag="...)
	b = append(b, url.QueryEscape(tag)...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	if ctx.Valid() {
		b = append(b, "\r\n"+trace.Header+": "...)
		b = append(b, ctx.Encode()...)
	}
	return append(b, "\r\n\r\n"...)
}

// readStatus reads the status line. Anything but a 200 fails the fetch
// and breaks conn: the body that follows is not read.
func readStatus(conn *wire.Conn) error {
	line, err := conn.ReadLine()
	if err != nil {
		return err
	}
	version, status, _ := bytes.Cut(line, []byte(" "))
	if !bytes.HasPrefix(version, []byte("HTTP/1.")) || len(status) < 3 {
		return conn.Protocol("bad status line %q", line)
	}
	if !bytes.HasPrefix(status, []byte("200")) || (len(status) > 3 && status[3] != ' ') {
		return conn.Fail(retry.Permanent(fmt.Errorf("status %s", status)))
	}
	return nil
}

// readBody reads the headers and the body after a 200 and decodes the
// payload. conn goes back to the pool only once the body is read whole
// and decoded and the server has not said it will close it: an error
// never parks it.
func (c *Client) readBody(conn *wire.Conn) (*Payload, error) {
	h, err := conn.ReadHeader(maxBody, nil)
	if err != nil {
		return nil, err
	}
	if h.Length < 0 {
		return nil, conn.Protocol("response without a Content-Length")
	}
	buf := bufpool.GetSized(int(h.Length))
	defer bufpool.PutSized(buf)
	if _, err := io.ReadFull(conn.R, *buf); err != nil {
		return nil, conn.Fail(fmt.Errorf("http: reading a %d-byte body: %w", h.Length, err))
	}
	p := new(Payload)
	if err := json.Unmarshal(*buf, p); err != nil {
		return nil, conn.Fail(fmt.Errorf("decoding payload: %w", err))
	}
	if h.Close {
		conn.Fail(nil)
	} else {
		c.conns.Put(c.addr, conn)
	}
	return p, nil
}

// Close hangs up the parked connections; a later fetch dials afresh.
func (c *Client) Close() error {
	c.once.Do(c.init)
	if c.conns == nil {
		return nil
	}
	return c.conns.Close()
}
