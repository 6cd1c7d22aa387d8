package chirp

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"lobster/internal/bufpool"
	"lobster/internal/faultinject"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// Protocol: each request is one text line; commands carrying data follow the
// line immediately with exactly the announced number of payload bytes.
//
//	getfile <path>            → "<size>\n" + bytes | "-1 <error>\n"
//	putfile <path> <size>\n<bytes> → "0\n" | "-1 <error>\n"
//	append  <path> <size>\n<bytes> → "0\n" | "-1 <error>\n"
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
	lis net.Listener
	// slots bounds concurrently-serviced connections; others queue.
	slots chan struct{}

	mu      sync.Mutex
	closed  bool
	open    map[net.Conn]struct{} // accepted conns, force-closed on Close
	wg      sync.WaitGroup
	conns   atomic.Int64
	active  atomic.Int64
	queued  atomic.Int64
	reqs    atomic.Int64
	errs    atomic.Int64
	in, out atomic.Int64
	qwait   atomic.Int64 // nanoseconds

	// tel, tracer, and fault are installed after the accept loop is
	// already running, so publication must be atomic.
	tel    atomic.Pointer[serverTelemetry]
	tracer atomic.Pointer[trace.Tracer]
	fault  atomic.Pointer[faultinject.Injector]
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

// serverTelemetry holds the server's instruments; the zero value is free.
type serverTelemetry struct {
	conns     *telemetry.Counter
	reqs      *telemetry.Counter
	errs      *telemetry.Counter
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	planeIn   *telemetry.Counter // lobster_bytes_total{chirp_server,in}
	planeOut  *telemetry.Counter // lobster_bytes_total{chirp_server,out}
	queueWait *telemetry.Histogram
}

// noTel is the disabled instrument set: every field nil, every call a
// nil-receiver no-op.
var noTel serverTelemetry

// telemetry returns the installed instruments, or the free zero set.
func (s *Server) telemetry() *serverTelemetry {
	if t := s.tel.Load(); t != nil {
		return t
	}
	return &noTel
}

// Instrument registers the server's metric series on reg. A nil registry
// leaves the server uninstrumented at zero cost.
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.tel.Store(&serverTelemetry{
		conns: reg.Counter("lobster_chirp_connections_total",
			"Connections accepted by the chirp server."),
		reqs: reg.Counter("lobster_chirp_requests_total",
			"Protocol requests dispatched."),
		errs: reg.Counter("lobster_chirp_errors_total",
			"Protocol requests that returned an error."),
		bytesIn: reg.Counter("lobster_chirp_bytes_in_total",
			"Payload bytes received (putfile/append)."),
		bytesOut: reg.Counter("lobster_chirp_bytes_out_total",
			"Payload bytes sent (getfile)."),
		planeIn:  reg.Bytes("chirp_server", telemetry.DirIn),
		planeOut: reg.Bytes("chirp_server", telemetry.DirOut),
		queueWait: reg.Histogram("lobster_chirp_queue_wait_seconds",
			"Time connections waited for one of the bounded service slots.", nil),
	})
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
	s := &Server{fs: fs, lis: lis, slots: make(chan struct{}, maxConcurrent)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Connections:  s.conns.Load(),
		ActiveConns:  s.active.Load(),
		QueuedConns:  s.queued.Load(),
		Requests:     s.reqs.Load(),
		Errors:       s.errs.Load(),
		BytesIn:      s.in.Load(),
		BytesOut:     s.out.Load(),
		QueueWaitSum: time.Duration(s.qwait.Load()),
	}
}

// Close stops accepting, hangs up every open connection, and waits for
// their handlers to finish. Force-closing matters now that clients hold
// pooled connections open between operations: an idle client parked in
// its pool must not be able to stall server shutdown.
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

// trackConn registers an accepted conn for force-close on shutdown; it
// reports false (and closes the conn) if the server is already closing.
func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	if s.open == nil {
		s.open = make(map[net.Conn]struct{})
	}
	s.open[conn] = struct{}{}
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.open, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		conn = s.fault.Load().Conn("chirp_server", conn)
		if !s.trackConn(conn) {
			return // server closing
		}
		s.conns.Add(1)
		s.telemetry().conns.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			defer s.untrackConn(conn)
			// Queue for a service slot: this is the connection cap that
			// produces batched stage-out behaviour under bursts.
			start := time.Now()
			s.queued.Add(1)
			s.slots <- struct{}{}
			s.queued.Add(-1)
			wait := time.Since(start)
			s.qwait.Add(int64(wait))
			s.telemetry().queueWait.Observe(wait.Seconds())
			s.active.Add(1)
			defer func() {
				s.active.Add(-1)
				<-s.slots
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	var cur trace.Context // context for the next command, set by "trace"
	for {
		line, err := readLine(r)
		if err != nil {
			return
		}
		if line == "quit" {
			w.Flush()
			return
		}
		if rest, ok := strings.CutPrefix(line, "trace "); ok {
			// Advisory, no response: a malformed context parses to the
			// zero value, which simply leaves the next command untraced.
			cur, _ = trace.Parse(rest)
			continue
		}
		s.reqs.Add(1)
		s.telemetry().reqs.Inc()
		var sp *trace.Span
		if tr := s.tracer.Load(); tr != nil && cur.Valid() {
			cmd, _, _ := strings.Cut(line, " ")
			sp = tr.Start(cur, "chirp_server", cmd)
		}
		cur = trace.Context{}
		if err := s.dispatch(line, r, w, conn); err != nil {
			s.errs.Add(1)
			s.telemetry().errs.Inc()
			sp.Attr("error", sanitizeError(err))
			if errors.Is(err, errHangup) {
				// The stream is desynced (e.g. a transfer died after its
				// size header): an error reply would be read as payload.
				sp.End()
				w.Flush()
				return
			}
			fmt.Fprintf(w, "-1 %s\n", sanitizeError(err))
		}
		sp.End()
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// readLine reads one protocol line in place from r's buffer and returns
// it without its line ending. A line that outgrows the buffer (64 KiB on
// both ends of a connection) is bufio.ErrBufferFull: the peer is not
// speaking the protocol, and the caller drops the connection instead of
// holding whatever it sends.
func readLine(r *bufio.Reader) (string, error) {
	raw, err := r.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return string(bytes.TrimRight(raw, "\r\n")), nil
}

// sanitizeError flattens an error to a single line.
func sanitizeError(err error) string {
	return strings.ReplaceAll(err.Error(), "\n", " ")
}

// errHangup marks a failure that leaves the protocol stream desynced —
// a getfile that died after its size header, or a putfile whose payload
// could not be fully consumed. The only safe recovery is to drop the
// connection: an error reply would be read as payload bytes.
var errHangup = errors.New("chirp: stream desynced")

// hangup wraps err so serveConn closes the connection instead of
// replying.
func hangup(op string, err error) error {
	return fmt.Errorf("%s: %w: %w", op, errHangup, err)
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
			return hangup("getfile", err)
		}
		s.countOut(int64(len(data)))
		return nil
	}
	rc, size, err := sr.OpenRead(path)
	if err != nil {
		return err
	}
	defer rc.Close()
	fmt.Fprintf(w, "%d\n", size)
	// The limit guards against a file that grew after the stat: the
	// announced size is a protocol promise, not a hint. A file handle
	// rides the bufio writer's ReadFrom to the connection's sendfile — no
	// user-space copy; any other backend moves through a pooled chunk.
	n, err := bufpool.Copy(w, &io.LimitedReader{R: rc, N: size})
	s.countOut(n)
	if err != nil {
		return hangup("getfile", err)
	}
	if n != size {
		return hangup("getfile", fmt.Errorf("file shrank to %d of %d bytes mid-send", n, size))
	}
	return nil
}

// checksum is the IEEE CRC32 of the file at path, streamed through a
// pooled chunk: what "stat <path> crc" adds, so a client holding a copy
// learns in one round trip, and no payload, whether it is still current.
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
	_, err = bufpool.Copy(h, &io.LimitedReader{R: rc, N: size})
	return h.Sum32(), err
}

// servePut absorbs one putfile/append payload. Backends implementing
// StreamWriterFS receive the bytes as they arrive off the wire
// (spool-and-commit, so a dead client never corrupts the target);
// others get the whole payload in memory, landed in a bufpool.Arrival so
// a client claiming a huge size cannot commit server memory.
func (s *Server) servePut(op, path string, size int64, r *bufio.Reader, conn net.Conn) error {
	sw, ok := s.fs.(StreamWriterFS)
	if !ok {
		land := bufpool.Arrival{Announced: size}
		if n, err := land.ReadFrom(r); n < size {
			return hangup(op, fmt.Errorf("short payload: %w", cmp.Or(err, io.ErrUnexpectedEOF)))
		}
		s.countIn(size)
		if op == "putfile" {
			return s.fs.WriteFile(path, land.Bytes())
		}
		return s.fs.Append(path, land.Bytes())
	}
	pr := &payloadReader{br: r, conn: conn, limit: size}
	var err error
	if op == "putfile" {
		err = sw.WriteFileFrom(path, pr, size)
	} else {
		err = sw.AppendFileFrom(path, pr, size)
	}
	s.countIn(pr.n)
	if err != nil {
		// The backend may have stopped mid-payload (disk full, quota).
		// Drain what the client already committed to sending so the
		// stream stays aligned and the error reply is deliverable; if
		// the payload itself is short the client is gone — hang up.
		if rem := size - pr.n; rem > 0 {
			dn, derr := bufpool.CopyN(io.Discard, r, rem)
			s.countIn(dn)
			if derr != nil || dn != rem {
				return hangup(op, fmt.Errorf("short payload: %w", err))
			}
		}
		return err
	}
	return nil
}

// payloadReader delivers exactly limit payload bytes off the wire and
// tracks how many the backend consumed, so servePut knows how much of
// the announced payload is still pending after a backend error. Read
// serves everything through the protocol reader; the tailWriter fast
// path additionally hands the unbuffered remainder of a spool copy
// straight from the connection, so file destinations can use kernel
// splice instead of copying through user space.
type payloadReader struct {
	br    *bufio.Reader
	conn  net.Conn // may be nil (tests/fuzzing); the tail then reads via br
	n     int64    // bytes consumed off the wire
	limit int64
}

func (p *payloadReader) remaining() int64 { return p.limit - p.n }

func (p *payloadReader) Read(b []byte) (int, error) {
	if p.remaining() <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > p.remaining() {
		b = b[:p.remaining()]
	}
	n, err := p.br.Read(b)
	p.n += int64(n)
	return n, err
}

// WriteTailTo implements the tailWriter fast path: the protocol
// reader's buffered prefix is written straight out of its buffer (a
// payload that arrived whole with its command line is one write), then
// the rest comes off the connection — spliced when both ends allow it.
func (p *payloadReader) WriteTailTo(w io.Writer, want int64) (int64, error) {
	want = min(want, p.remaining())
	total, err := writeBuffered(w, p.br, want)
	p.n += total
	if rest := want - total; rest > 0 && err == nil {
		src := io.Reader(p.br)
		if p.conn != nil {
			src = p.conn
		}
		var m int64
		if m, err = bufpool.CopyN(w, src, rest); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		p.n += m
		total += m
	}
	return total, err
}

func (s *Server) countIn(n int64) {
	if n <= 0 {
		return
	}
	s.in.Add(n)
	t := s.telemetry()
	t.bytesIn.Add(n)
	t.planeIn.Add(n)
}

func (s *Server) countOut(n int64) {
	if n <= 0 {
		return
	}
	s.out.Add(n)
	t := s.telemetry()
	t.bytesOut.Add(n)
	t.planeOut.Add(n)
}

// nextField cuts the first whitespace-delimited field off s, the way
// strings.Fields delimits them, without allocating.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

func (s *Server) dispatch(line string, r *bufio.Reader, w *bufio.Writer, conn net.Conn) error {
	// No command takes more than two arguments; a fourth field only has
	// to be seen to be refused.
	var buf [4]string
	fields := buf[:0]
	for f, rest := nextField(line); f != "" && len(fields) < len(buf); f, rest = nextField(rest) {
		fields = append(fields, f)
	}
	if len(fields) == 0 {
		return errors.New("empty command")
	}
	switch fields[0] {
	case "getfile":
		if len(fields) != 2 {
			return errors.New("usage: getfile <path>")
		}
		return s.serveGet(fields[1], w)
	case "putfile", "append":
		if len(fields) != 3 {
			return fmt.Errorf("usage: %s <path> <size>", fields[0])
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || size < 0 || size > MaxPayload {
			return fmt.Errorf("bad size %q", fields[2])
		}
		if err := s.servePut(fields[0], fields[1], size, r, conn); err != nil {
			return err
		}
		w.WriteString("0\n")
		return nil
	case "stat":
		withCRC := len(fields) == 3 && fields[2] == "crc"
		if len(fields) != 2 && !withCRC {
			return errors.New("usage: stat <path> [crc]")
		}
		info, err := s.fs.Stat(fields[1])
		if err != nil {
			return err
		}
		if info.IsDir {
			fmt.Fprintf(w, "%d dir\n", info.Size)
		} else if withCRC {
			crc, err := s.checksum(fields[1])
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
		entries, err := s.fs.List(fields[1])
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
		if err := s.fs.Remove(fields[1]); err != nil {
			return err
		}
		w.WriteString("0\n")
		return nil
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}
