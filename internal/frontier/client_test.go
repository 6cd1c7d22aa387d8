package frontier

import (
	"bufio"
	"bytes"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lobster/internal/squid"
	"lobster/internal/trace"
	"lobster/internal/wrapper"
)

// rawServer answers every request of every connection with one canned
// response, and keeps what the client sent: each line it read, and one
// "hup" when the client hung up.
type rawServer struct {
	ln      net.Listener
	resp    string
	accepts atomic.Int64

	mu    sync.Mutex
	lines []string
	conns []net.Conn
	hups  chan struct{}
}

func newRawServer(t *testing.T, resp string) *rawServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawServer{ln: ln, resp: resp, hups: make(chan struct{}, 16)}
	t.Cleanup(func() {
		ln.Close()
		s.dropConns()
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			s.mu.Lock()
			s.conns = append(s.conns, nc)
			s.mu.Unlock()
			go s.serve(nc)
		}
	}()
	return s
}

func (s *rawServer) base() string { return "http://" + s.ln.Addr().String() }

func (s *rawServer) serve(nc net.Conn) {
	defer func() { s.hups <- struct{}{} }()
	r := bufio.NewReader(nc)
	for {
		line, err := r.ReadString('\n')
		if line != "" {
			s.mu.Lock()
			s.lines = append(s.lines, line)
			s.mu.Unlock()
		}
		if err != nil {
			return
		}
		if line == "\r\n" {
			if _, err := nc.Write([]byte(s.resp)); err != nil {
				return
			}
		}
	}
}

// dropConns closes the server's end of every connection, as an idle
// reaper or a restart does.
func (s *rawServer) dropConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, nc := range s.conns {
		nc.Close()
	}
	s.conns = nil
}

// awaitHup waits for the client to hang up one connection.
func (s *rawServer) awaitHup(t *testing.T) {
	t.Helper()
	select {
	case <-s.hups:
	case <-time.After(5 * time.Second):
		t.Fatal("the client kept the connection open")
	}
}

func (s *rawServer) received() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.lines...)
}

const okBody = `{"tag":"beam","first_run":1,"last_run":10,"data":"eA=="}`

var okResponse = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " +
	strconv.Itoa(len(okBody)) + "\r\n\r\n" + okBody

// TestClientRefusesWhatItDoesNotRead: a response the client does not read
// whole — chunked, without a length, longer than maxBody, not a 200 —
// fails the fetch, and the connection is hung up, never parked half-read.
func TestClientRefusesWhatItDoesNotRead(t *testing.T) {
	for _, tc := range []struct{ name, resp, want string }{
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", "Transfer-Encoding"},
		{"no length", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}", "Content-Length"},
		{"too long", "HTTP/1.1 200 OK\r\nContent-Length: 1048577\r\n\r\n{}", "1048577"},
		{"not a 200", "HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nnot found", "status 404 Not Found"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newRawServer(t, tc.resp)
			c := &Client{Base: srv.base()}
			defer c.Close()
			if p, err := c.Fetch("beam", 5); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("fetch = %+v, %v; want an error naming %q", p, err, tc.want)
			}
			srv.awaitHup(t)
			if n := Parked(c); n != 0 {
				t.Errorf("%d connections parked after a refused response", n)
			}
		})
	}
}

// TestClientKeepsConnectionsAlive: fetches reuse one parked connection;
// a response that says Connection: close is read and then hung up.
func TestClientKeepsConnectionsAlive(t *testing.T) {
	srv := newRawServer(t, okResponse)
	c := &Client{Base: srv.base()}
	defer c.Close()
	for i := 0; i < 3; i++ {
		p, err := c.Fetch("beam", 5)
		if err != nil || string(p.Data) != "x" || p.Tag != "beam" {
			t.Fatalf("fetch %d: %+v, %v", i, p, err)
		}
		if Parked(c) != 1 {
			t.Fatalf("fetch %d: %d parked, want 1", i, Parked(c))
		}
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Errorf("%d dials for three fetches, want 1", n)
	}
	got := srv.received()[:3]
	want := []string{"GET /frontier/payload?run=5&tag=beam HTTP/1.1\r\n", "Host: " + srv.ln.Addr().String() + "\r\n", "\r\n"}
	if strings.Join(got, "") != strings.Join(want, "") {
		t.Errorf("request = %q, want %q", got, want)
	}

	closing := newRawServer(t, strings.Replace(okResponse, "\r\n\r\n", "\r\nConnection: close\r\n\r\n", 1))
	cc := &Client{Base: closing.base()}
	defer cc.Close()
	if p, err := cc.Fetch("beam", 5); err != nil || string(p.Data) != "x" {
		t.Fatalf("fetch with Connection: close: %+v, %v", p, err)
	}
	closing.awaitHup(t)
	if n := Parked(cc); n != 0 {
		t.Errorf("%d parked after Connection: close", n)
	}
}

// TestClientStaleConnectionRedialsOnce: a parked connection the server
// dropped costs the next fetch exactly one dial, and no error.
func TestClientStaleConnectionRedialsOnce(t *testing.T) {
	srv := newRawServer(t, okResponse)
	c := &Client{Base: srv.base()}
	defer c.Close()
	if _, err := c.Fetch("beam", 5); err != nil {
		t.Fatal(err)
	}
	srv.dropConns()
	srv.awaitHup(t)
	for i := 0; i < 2; i++ {
		if p, err := c.Fetch("beam", 5); err != nil || string(p.Data) != "x" {
			t.Fatalf("fetch %d after the server dropped the parked connection: %+v, %v", i, p, err)
		}
	}
	if n := srv.accepts.Load(); n != 2 {
		t.Errorf("%d dials, want 2: the first fetch's and one redial", n)
	}
}

// TestClientConcurrentFetches: the worker's slots share one client, so
// fetches from several goroutines at once each get a connection of their
// own, all succeed, and no more connections stay parked than were in use.
func TestClientConcurrentFetches(t *testing.T) {
	s := NewService()
	s.Publish(Payload{Tag: "beam", FirstRun: 1, LastRun: 10, Data: []byte("spot")})
	origin := httptest.NewServer(s)
	defer origin.Close()
	proxy, err := squid.New(origin.URL, squid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proxyURL, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := &Client{Base: proxyURL}
	const slots, fetches = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < slots; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < fetches; i++ {
				if p, err := c.Fetch("beam", 5); err != nil || string(p.Data) != "spot" {
					t.Errorf("fetch: %+v, %v", p, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := Parked(c); n < 1 || n > slots {
		t.Errorf("%d connections parked after %d concurrent slots", n, slots)
	}
	if err := c.Close(); err != nil || Parked(c) != 0 {
		t.Errorf("close: %v, %d still parked", err, Parked(c))
	}
}

// TestClientCloseSaysNothing: closing the client hangs its parked
// connections up without a line-protocol "quit", which an HTTP server
// would answer with a 400.
func TestClientCloseSaysNothing(t *testing.T) {
	srv := newRawServer(t, okResponse)
	c := &Client{Base: srv.base()}
	if _, err := c.Fetch("beam", 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.awaitHup(t)
	if got := srv.received(); len(got) != 3 {
		t.Errorf("the server read %q; want the request's three lines and nothing after", got)
	}
}

// TestConditionsTimeout: a proxy that accepts and never answers fails the
// conditions segment with its code once the fetch deadline passes, traced
// or not; the deadline is not the caller's HTTP client's to give.
func TestConditionsTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var mu sync.Mutex
	defer func() {
		mu.Lock()
		for _, nc := range held {
			nc.Close()
		}
		mu.Unlock()
	}()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, nc)
			mu.Unlock()
		}
	}()
	for _, traced := range []bool{false, true} {
		c := &Client{Base: "http://" + ln.Addr().String()}
		SetTimeout(c, 100*time.Millisecond)
		var ctx trace.Context
		if traced {
			ctx = trace.Context{TraceID: 1, SpanID: 2, Sampled: true}
		}
		start := time.Now()
		rep := new(wrapper.Report)
		wrapper.Run(rep, new(wrapper.StepContext), nil, nil, trace.Context{}, wrapper.Step{Segment: wrapper.SegConditions,
			Run: func(*wrapper.StepContext) error {
				_, err := c.FetchTraced("beam", 5, ctx)
				return err
			}})
		if rep.ExitCode != wrapper.SegConditions.Code() {
			t.Errorf("traced=%v: report %+v, want exit code %d", traced, rep, wrapper.SegConditions.Code())
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("traced=%v: a silent proxy held the fetch %v", traced, took)
		}
		c.Close()
	}
}

// BenchmarkConditionsHot is one hot conditions fetch: the client's parked
// connection, a squid hit, the in-process frontier origin behind it.
// BENCH_dataplane.json pins its B/op and allocs/op.
func BenchmarkConditionsHot(b *testing.B) {
	s := NewService()
	s.Publish(Payload{Tag: "align", FirstRun: 1, LastRun: 100000000, Data: []byte("conditions")})
	origin := httptest.NewServer(s)
	defer origin.Close()
	proxy, err := squid.New(origin.URL, squid.Config{})
	if err != nil {
		b.Fatal(err)
	}
	proxyURL, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer proxy.Close()
	c := &Client{Base: proxyURL}
	defer c.Close()
	for i := 0; i < 3; i++ { // the origin fetch, then the pools
		if _, err := c.Fetch("align", 250000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fetch("align", 250000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClientHeaderRules: a second Content-Length that differs from the
// first fails the fetch and hangs up (RFC 9112 section 6.3), where the
// last one used to win; a repeat of the same one does not. A close token
// inside a Connection list is honoured: the connection is read and then
// hung up, not parked for a fetch that would find it dead.
func TestClientHeaderRules(t *testing.T) {
	length := "Content-Length: " + strconv.Itoa(len(okBody)) + "\r\n"
	for _, tc := range []struct {
		name, resp, err string
		parked          int
	}{
		{"two lengths", strings.Replace(okResponse, length, length+"Content-Length: 9\r\n", 1), "Content-Length", 0},
		{"a repeated length", strings.Replace(okResponse, length, length+length, 1), "", 1},
		{"close in a list", strings.Replace(okResponse, length, length+"Connection: keep-alive, close\r\n", 1), "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newRawServer(t, tc.resp)
			c := &Client{Base: srv.base()}
			defer c.Close()
			p, err := c.Fetch("beam", 5)
			if tc.err == "" && (err != nil || string(p.Data) != "x") || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("fetch = %+v, %v; want error %q", p, err, tc.err)
			}
			if tc.parked == 0 {
				srv.awaitHup(t)
			}
			if n := Parked(c); n != tc.parked {
				t.Errorf("%d connections parked, want %d", n, tc.parked)
			}
		})
	}
}

// endless is a proxy's side of a connection: what it answers, then an
// endless stream of bytes, so that a reader that goes past what it may
// read is caught counting.
type endless struct {
	answer *bytes.Reader
	read   int64
}

func (e *endless) Read(b []byte) (int, error) {
	n, _ := e.answer.Read(b)
	for i := n; i < len(b); i++ {
		b[i] = 'x'
	}
	e.read += int64(len(b))
	return len(b), nil
}
func (e *endless) Write(b []byte) (int, error)      { return len(b), nil }
func (e *endless) Close() error                     { return nil }
func (e *endless) LocalAddr() net.Addr              { return nil }
func (e *endless) RemoteAddr() net.Addr             { return nil }
func (e *endless) SetDeadline(time.Time) error      { return nil }
func (e *endless) SetReadDeadline(time.Time) error  { return nil }
func (e *endless) SetWriteDeadline(time.Time) error { return nil }

// FuzzResponse: whatever a proxy answers, a fetch never panics, a fetch
// that fails never parks its connection, and no body past the 1 MiB cap
// is read: behind the answer the connection carries bytes without end,
// and the client reads at most the answer, a capped body and one read
// buffer of them.
func FuzzResponse(f *testing.F) {
	for _, seed := range []string{
		okResponse,
		strings.Replace(okResponse, "\r\n\r\n", "\r\nConnection: keep-alive, close\r\n\r\n", 1),
		strings.Replace(okResponse, "\r\n\r\n", "\r\nContent-Length: 7\r\n\r\n", 1),
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 1048577\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\n",
		"HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nnot found",
		"HTTP/1.1 200 OK\r\r\nContent-Length: 2\r\n\r\n{}",
		"ICY 200 OK\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, answer []byte) {
		e := &endless{answer: bytes.NewReader(answer)}
		c := &Client{Base: "http://squid.invalid:3128"}
		DialWith(c, func() net.Conn { return e })
		p, err := c.Fetch("beam", 5)
		if err != nil && Parked(c) != 0 {
			t.Fatalf("%q: %v, and the connection was parked", answer, err)
		}
		if err == nil && p == nil {
			t.Fatalf("%q: no payload and no error", answer)
		}
		if limit := int64(len(answer)) + maxBody + 4<<10; e.read > limit {
			t.Fatalf("%q: read %d bytes, past the %d an answer and a capped body take", answer, e.read, limit)
		}
		c.Close()
	})
}
