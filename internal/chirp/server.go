package chirp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/faultinject"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Protocol: each request is one text line; commands carrying data follow the
// line immediately with exactly the announced number of payload bytes.
//
//	getfile <path>            → "<size>\n" + bytes | "-1 <error>\n"
//	putfile <path> <size>\n<bytes> → "0\n" | "-1 <error>\n"
//	stat <path> [crc]         → "<size> <dir|file>[ <crc32 hex>]\n" | "-1 <error>\n"
//	ls <path>                 → "<n>\n" then n lines "<size> <d|f> <name>" | "-1 ..."
//	unlink <path>             → "0\n" | "-1 <error>\n"
//	trace <context>           → no response; tags the next command's span
//	quit                      → closes the connection
//
// Error text never contains a newline. The trace line is advisory: a
// malformed context is ignored, and servers without a tracer skip it,
// so old and new clients interoperate in both directions.

// ServerStats is a snapshot of server counters.
type ServerStats struct {
	Connections  int64
	ActiveConns  int64
	QueuedConns  int64 // accepted but still waiting for a service slot
	Requests     int64
	Errors       int64
	BytesIn      int64
	BytesOut     int64
	QueueWaitSum time.Duration // total time requests waited for a slot
}

// Server serves a FileSystem over TCP with a bounded number of concurrently
// serviced connections.
type Server struct {
	fs  FileSystem
	srv *wire.Server
	// slots bounds concurrently-serviced connections; others queue.
	slots chan struct{}

	// The counters Stats reports, counting from construction; Instrument
	// publishes them as they are.
	conns, reqs, errs, in, out telemetry.Counter

	active atomic.Int64
	queued atomic.Int64
	qwait  atomic.Int64 // nanoseconds

	// queueWait, tracer, and fault are installed after the accept loop is
	// already running, so publication must be atomic.
	queueWait atomic.Pointer[telemetry.Histogram]
	tracer    atomic.Pointer[trace.Tracer]
	fault     atomic.Pointer[faultinject.Injector]
}

// Fault wires the server into the fault plane: newly accepted
// connections are wrapped so their reads and writes consult inj under
// component "chirp_server". Call before traffic; nil is a no-op.
func (s *Server) Fault(inj *faultinject.Injector) {
	if inj != nil {
		s.fault.Store(inj)
	}
}

// Trace attaches a tracer: requests preceded by a client "trace" line
// get a server-side span chained under the client's context, so the
// analyzer can split a slow chirp get into network time (client span
// minus server span) and service time. Call before traffic; nil leaves
// the server untraced at zero cost.
func (s *Server) Trace(tr *trace.Tracer) {
	if tr != nil {
		s.tracer.Store(tr)
	}
}

// Instrument publishes the server's counters on reg, payload bytes also
// as lobster_bytes_total{component="chirp_server"}, and registers its
// queue-wait histogram. One server per registry; a nil registry is a
// no-op.
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterVec("lobster_chirp_connections_total",
		"Connections accepted by the chirp server.").Publish(&s.conns)
	reg.CounterVec("lobster_chirp_requests_total",
		"Protocol requests dispatched.").Publish(&s.reqs)
	reg.CounterVec("lobster_chirp_errors_total",
		"Protocol requests that returned an error.").Publish(&s.errs)
	reg.CounterVec("lobster_chirp_bytes_in_total",
		"Payload bytes received (putfile).").Publish(&s.in)
	reg.CounterVec("lobster_chirp_bytes_out_total",
		"Payload bytes sent (getfile).").Publish(&s.out)
	reg.BytesVec().Publish(&s.in, "chirp_server", telemetry.DirIn, "")
	reg.BytesVec().Publish(&s.out, "chirp_server", telemetry.DirOut, "")
	s.queueWait.Store(reg.Histogram("lobster_chirp_queue_wait_seconds",
		"Time connections waited for one of the bounded service slots.", nil))
	reg.GaugeFunc("lobster_chirp_active_connections",
		"Connections holding a service slot right now.",
		func() float64 { return float64(s.active.Load()) })
	reg.GaugeFunc("lobster_chirp_queued_connections",
		"Connections accepted but still waiting for a service slot — the "+
			"overload signal of the paper's throttled Chirp server.",
		func() float64 { return float64(s.queued.Load()) })
}

// MaxPayload bounds a single transfer to keep a malicious or buggy client
// from exhausting memory.
const MaxPayload = 1 << 31 // 2 GiB

// NewServer starts a server for fs on addr (e.g. "127.0.0.1:0").
// maxConcurrent bounds simultaneously-serviced connections (<=0 means 16,
// a deliberately small default mirroring the paper's throttled Chirp).
func NewServer(fs FileSystem, addr string, maxConcurrent int) (*Server, error) {
	if maxConcurrent <= 0 {
		maxConcurrent = 16
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("chirp: listening on %s: %w", addr, err)
	}
	s := &Server{fs: fs, slots: make(chan struct{}, maxConcurrent)}
	s.srv = wire.Serve(lis, s.handle)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Connections:  s.conns.Value(),
		ActiveConns:  s.active.Load(),
		QueuedConns:  s.queued.Load(),
		Requests:     s.reqs.Value(),
		Errors:       s.errs.Value(),
		BytesIn:      s.in.Value(),
		BytesOut:     s.out.Value(),
		QueueWaitSum: time.Duration(s.qwait.Load()),
	}
}

// Close stops accepting, hangs up every open connection (parked ones
// included) and waits for their handlers to finish.
func (s *Server) Close() error { return s.srv.Close() }

// handle answers one accepted connection's requests once it holds a
// service slot.
func (s *Server) handle(conn net.Conn) {
	conn = s.fault.Load().Conn("chirp_server", conn)
	s.conns.Inc()
	// Queue for a service slot: this is the connection cap that
	// produces batched stage-out behaviour under bursts.
	start := time.Now()
	s.queued.Add(1)
	s.slots <- struct{}{}
	s.queued.Add(-1)
	wait := time.Since(start)
	s.qwait.Add(int64(wait))
	s.queueWait.Load().Observe(wait.Seconds())
	s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		<-s.slots
	}()
	// A line that outgrows the 64 KiB reader ends the connection.
	var cur trace.Context // context for the next command, set by "trace"
	var pc *peer
	wire.ServeLines("chirp", conn, 64<<10, 64<<10, func(line []byte, c *wire.Conn) error {
		if pc == nil {
			pc = newPeer(c)
		}
		if rest, ok := bytes.CutPrefix(line, []byte("trace ")); ok {
			// Advisory, no response: a malformed context parses to the
			// zero value, which simply leaves the next command untraced.
			cur, _ = trace.Parse(string(rest))
			return nil
		}
		s.reqs.Inc()
		var sp *trace.Span
		if tr := s.tracer.Load(); tr != nil && cur.Valid() {
			cmd, _, _ := bytes.Cut(line, []byte(" "))
			sp = tr.Start(cur, "chirp_server", string(cmd))
		}
		cur = trace.Context{}
		defer sp.End()
		err := s.dispatch(line, pc)
		if err != nil {
			s.errs.Inc()
			sp.Attr("error", err.Error())
		}
		return err
	})
}

// serveGet answers one getfile request. Backends implementing
// StreamReaderFS are piped straight to the socket through pooled chunks
// (with kernel sendfile when the endpoints allow it); others fall back
// to a whole-file read.
func (s *Server) serveGet(path string, w *bufio.Writer) error {
	sr, ok := s.fs.(StreamReaderFS)
	if !ok {
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\n", len(data))
		if _, err := w.Write(data); err != nil {
			return wire.Hangup(err)
		}
		s.out.Add(int64(len(data)))
		return nil
	}
	rc, size, err := sr.OpenRead(path)
	if err != nil {
		return err
	}
	defer rc.Close()
	fmt.Fprintf(w, "%d\n", size)
	// Exactly the announced size goes out, whatever the file did since the
	// stat: the size line is a protocol promise, not a hint. A file handle
	// rides the bufio writer's ReadFrom to the connection's sendfile — no
	// user-space copy; any other backend moves through a pooled chunk.
	n, err := bufpool.CopyN(w, rc, size)
	s.out.Add(n)
	if err == io.EOF {
		return wire.Hangup(fmt.Errorf("file shrank to %d of %d bytes mid-send", n, size))
	}
	if err != nil {
		return wire.Hangup(err)
	}
	return nil
}

// checksum is the IEEE CRC32 of the file at path, streamed through a
// pooled chunk: what "stat <path> crc" adds, so a client holding a copy
// learns in one round trip, and no payload, whether it is still current.
// A file that ends before the size it was opened at is an error, not the
// checksum of a prefix.
func (s *Server) checksum(path string) (uint32, error) {
	sr, ok := s.fs.(StreamReaderFS)
	if !ok {
		data, err := s.fs.ReadFile(path)
		return crc32.ChecksumIEEE(data), err
	}
	rc, size, err := sr.OpenRead(path)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	h := crc32.NewIEEE()
	if n, err := bufpool.CopyN(h, rc, size); err != nil {
		return 0, fmt.Errorf("checksumming %s: read %d of %d bytes: %w", path, n, size, err)
	}
	return h.Sum32(), nil
}

// peer is one accepted connection and what its requests reuse: the
// putfile payload reader a put hands its backend, its method value bound
// once, so that a put allocates no closure of its own.
type peer struct {
	*wire.Conn
	putSize int64 // the current put's payload
	putRead bool  // the backend asked for it
	putErr  error // and reading it failed so
	fill    func(io.Writer) error
}

func newPeer(c *wire.Conn) *peer {
	p := &peer{Conn: c}
	p.fill = p.readPut
	return p
}

// readPut reads the current put's payload into w.
func (c *peer) readPut(w io.Writer) error {
	c.putRead = true
	_, c.putErr = c.ReadPayload(w, c.putSize)
	return c.putErr
}

// servePut absorbs one putfile payload off c. A backend
// implementing StreamWriterFS hands over the writer its spool is, and the
// bytes are read into it as they arrive off the wire (spool-and-commit,
// so a dead client never corrupts the target); others get the whole
// payload in memory, landed in a bufpool.Arrival so a client claiming a
// huge size cannot commit server memory. A payload the backend never
// asked for is drained, so the reply stays in step; one that could not
// all be read has broken c, and the server hangs up.
func (s *Server) servePut(path string, size int64, c *peer) error {
	sw, ok := s.fs.(StreamWriterFS)
	if !ok {
		var land bufpool.Arrival
		if _, err := c.ReadPayload(&land, size); err != nil {
			return wire.Hangup(fmt.Errorf("short putfile payload: %w", err))
		}
		s.in.Add(size)
		return s.fs.WriteFile(path, land.Bytes())
	}
	c.putSize, c.putRead, c.putErr = size, false, nil
	err := sw.WriteFileFrom(path, size, c.fill)
	if !c.putRead {
		_, c.putErr = c.ReadPayload(io.Discard, size)
	}
	if c.Broken() {
		return wire.Hangup(fmt.Errorf("putfile payload: %w", c.putErr))
	}
	s.in.Add(size)
	return err
}

// dispatch answers one command line on c: its reply into c.W, a put's
// payload off c.
func (s *Server) dispatch(line []byte, c *peer) error {
	w := c.W
	// No command takes more than two arguments; a fourth field only has
	// to be seen to be refused.
	var buf [4][]byte
	fields := wire.Fields(line, buf[:0])
	if len(fields) == 0 {
		return errors.New("empty command")
	}
	var path string
	if len(fields) > 1 {
		path = string(fields[1])
	}
	switch string(fields[0]) {
	case "getfile":
		if len(fields) != 2 {
			return errors.New("usage: getfile <path>")
		}
		return s.serveGet(path, w)
	case "putfile":
		if len(fields) != 3 {
			return errors.New("usage: putfile <path> <size>")
		}
		size, err := strconv.ParseInt(string(fields[2]), 10, 64)
		if err != nil || size < 0 || size > MaxPayload {
			return fmt.Errorf("bad size %q", fields[2])
		}
		if err := s.servePut(path, size, c); err != nil {
			return err
		}
		w.WriteString("0\n")
		return nil
	case "stat":
		withCRC := len(fields) == 3 && string(fields[2]) == "crc"
		if len(fields) != 2 && !withCRC {
			return errors.New("usage: stat <path> [crc]")
		}
		info, err := s.fs.Stat(path)
		if err != nil {
			return err
		}
		if info.IsDir {
			fmt.Fprintf(w, "%d dir\n", info.Size)
		} else if withCRC {
			crc, err := s.checksum(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d file %08x\n", info.Size, crc)
		} else {
			fmt.Fprintf(w, "%d file\n", info.Size)
		}
		return nil
	case "ls":
		if len(fields) != 2 {
			return errors.New("usage: ls <path>")
		}
		entries, err := s.fs.List(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\n", len(entries))
		for _, e := range entries {
			kind := "f"
			if e.IsDir {
				kind = "d"
			}
			fmt.Fprintf(w, "%d %s %s\n", e.Size, kind, e.Name)
		}
		return nil
	case "unlink":
		if len(fields) != 2 {
			return errors.New("usage: unlink <path>")
		}
		if err := s.fs.Remove(path); err != nil {
			return err
		}
		w.WriteString("0\n")
		return nil
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}
