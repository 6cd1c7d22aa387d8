package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// ServeLines answers the request lines read off conn, a connection of
// protocol proto, until the peer says quit or hangs up, or sends a line
// that outgrows the reader. answer writes one line's reply into c.W and
// reads any payload behind the line off c (ReadPayload); an error it
// returns is answered in protocol (ReplyError) — unless it is a Hangup,
// which ends the connection instead.
func ServeLines(proto string, conn net.Conn, rsize, wsize int, answer func(line []byte, c *Conn) error) {
	c := NewConn(proto, conn, rsize, wsize)
	for {
		line, err := readLine(c.R, false)
		if err != nil || string(line) == "quit" {
			return
		}
		if err := answer(line, c); err != nil {
			if errors.Is(err, ErrHangup) {
				return
			}
			ReplyError(c.W, err)
		}
		if c.W.Flush() != nil {
			return
		}
	}
}

// ErrHangup marks a failure that leaves the stream out of step — a reply
// cut short after part of it was written, a request payload that could
// not all be read — where a "-1" line would be taken for payload bytes.
var ErrHangup = errors.New("stream out of step")

// Hangup wraps err so ServeLines hangs up instead of answering.
func Hangup(err error) error { return fmt.Errorf("%w: %w", ErrHangup, err) }

// Server is the accept loop of a protocol server: every accepted
// connection is handled on its own goroutine and tracked until the handler
// returns, and Close hangs all of them up — clients park connections
// between operations, and an idle one must not be able to stall shutdown.
type Server struct {
	lis net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
	open   map[net.Conn]struct{}
}

// Serve accepts on lis until Close, handing each connection to handle,
// which the server closes once handle returns.
func Serve(lis net.Listener, handle func(net.Conn)) *Server {
	s := &Server{lis: lis, open: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept(handle)
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Conns counts the connections open right now, parked ones included.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// Close stops accepting, hangs up every open connection and waits for
// their handlers. A second Close does nothing.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.open {
		c.Close()
	}
	s.mu.Unlock()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

func (s *Server) accept(handle func(net.Conn)) {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil || !s.track(conn) {
			return // listener closed, or closing
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			handle(conn)
		}()
	}
}

// track registers conn for Close; on a server already closing it hangs
// conn up instead and reports false.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	s.open[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.open, conn)
	s.mu.Unlock()
}
