package xrootd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// Client opens LFNs through a redirector, streaming content from whichever
// replica answers and failing over between replicas on error. Consumer names
// the accounting entity (site or user) for the Dashboard.
//
// Failure handling: each replica pass tries every replica once, skipping
// to the next on transport failures and stopping early on permanent
// (server-reported or protocol) errors. When Retry is configured, whole
// passes repeat under bounded exponential backoff — the WAN read path
// in the paper's environment sees transient replica outages that clear
// within seconds, so a second pass usually lands.
type Client struct {
	Redirector *Redirector
	Dashboard  *Dashboard
	Consumer   string
	// DialTimeout bounds each connection attempt (default 10 s).
	DialTimeout time.Duration
	// OpTimeout bounds each protocol round trip via a connection
	// deadline (0 = unbounded).
	OpTimeout time.Duration
	// Retry bounds repeated replica passes on transport failures. The
	// zero Policy keeps the old behaviour: one pass, fail over between
	// replicas, surface the first error when all fail.
	Retry retry.Policy
	// Fault, when non-nil, wires replica connections into the fault
	// plane under component "xrootd_client".
	Fault *faultinject.Injector
	// Telemetry, when non-nil, counts fetched payload bytes under
	// lobster_bytes_total{component="xrootd_client",site=...}, one
	// series per serving site — the Figure 9 accounting shape.
	Telemetry *telemetry.Registry
	// Selector, when non-nil, orders Locate results by observed
	// bandwidth and sheds consistently slow or failing replicas. Every
	// completed transfer feeds it; share one selector across the
	// clients of a consumer so the EWMAs see all streams.
	Selector *Selector

	idle idleConns
}

// wire is one replica connection with its buffers: what a File gives
// back on Close and the next open on the same replica takes over.
type wire struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// maxIdlePerReplica matches the chirp pool's size, the most slots one
// worker process drives at once.
const maxIdlePerReplica = 8

// idleConns parks healthy connections between Files. The protocol is
// stateless per command (every open, stat and read names its LFN), so a
// connection that served one file serves the next as it is. The zero
// value is ready; a Client must not be copied after first use.
type idleConns struct {
	mu     sync.Mutex
	byAddr map[string][]*wire
	closed bool

	// lobster_xrootd_client_conns_total{outcome}, resolved on first use;
	// nil no-ops without a registry.
	telOnce               sync.Once
	reused, dialed, stale *telemetry.Counter
}

func (p *idleConns) take(addr string) *wire {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.byAddr[addr]
	if len(l) == 0 {
		return nil
	}
	p.byAddr[addr] = l[:len(l)-1]
	return l[len(l)-1]
}

// park reports false when addr's list is full or the client closed; the
// caller hangs up instead.
func (p *idleConns) park(addr string, w *wire) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.byAddr[addr]) >= maxIdlePerReplica {
		return false
	}
	if p.byAddr == nil {
		p.byAddr = make(map[string][]*wire)
	}
	p.byAddr[addr] = append(p.byAddr[addr], w)
	return true
}

func (c *Client) conns() *idleConns {
	c.idle.telOnce.Do(func() {
		vec := c.Telemetry.CounterVec("lobster_xrootd_client_conns_total",
			"Replica connections an open used: a parked one (reused), a fresh dial (dialed), or a parked one found dead and replaced by a dial (stale).",
			"outcome")
		c.idle.reused, c.idle.dialed, c.idle.stale = vec.With("reused"), vec.With("dialed"), vec.With("stale")
	})
	return &c.idle
}

// Close hangs up the parked connections. The client stays usable, but
// from here on every File.Close hangs up too.
func (c *Client) Close() error {
	c.idle.mu.Lock()
	defer c.idle.mu.Unlock()
	c.idle.closed = true
	for _, l := range c.idle.byAddr {
		for _, w := range l {
			w.conn.Close()
		}
	}
	c.idle.byAddr = nil
	return nil
}

// File is an open remote file. Not safe for concurrent use.
//
// Any transport failure closes the connection and marks the file
// broken: the line protocol has no resync point, so later operations
// short-circuit with the original classification (retryable — reopen
// and try again).
type File struct {
	client *Client
	lfn    string
	size   int64
	offset int64
	*wire
	broken bool
	addr   string
	rep    Replica // the replica serving this connection
}

// fail closes the connection after a transport failure and returns err.
func (f *File) fail(err error) error {
	if !f.broken {
		f.broken = true
		f.conn.Close()
	}
	return err
}

// Broken reports whether a transport failure has poisoned this file's
// connection; a broken file must be reopened.
func (f *File) Broken() bool { return f.broken }

var errBroken = fmt.Errorf("xrootd: connection broken by earlier failure")

// Open resolves lfn and connects to a replica. Replicas are tried in the
// order the redirector returns them; configured retries repeat the whole
// pass with backoff.
func (c *Client) Open(lfn string) (*File, error) {
	return c.OpenTraced(lfn, nil, trace.Context{})
}

// OpenTraced is Open recording an "open" span on tr under parent that
// names the LFN and the replica that answered, so the analyzer can
// attribute slow WAN reads to a storage element. Tasks tracing under
// different parents share one client and its parked connections; a nil
// tracer or invalid parent records nothing at zero cost.
func (c *Client) OpenTraced(lfn string, tr *trace.Tracer, parent trace.Context) (*File, error) {
	var sp *trace.Span
	if tr != nil && parent.Valid() {
		sp = tr.Start(parent, "xrootd", "open")
		sp.Attr("lfn", lfn)
	}
	defer sp.End()
	var f *File
	err := c.Retry.Do(func() error {
		var err error
		f, err = c.openPass(lfn, sp)
		return err
	})
	if err != nil {
		sp.Attr("error", err.Error())
		return nil, err
	}
	return f, nil
}

// openPass makes one pass over the replicas, failing over to the next
// on any error (a replica reporting "unavailable" in protocol is the
// canonical failover trigger). The aggregate error is permanent only
// when every replica failed permanently — one transient failure makes
// the whole pass worth retrying.
func (c *Client) openPass(lfn string, sp *trace.Span) (*File, error) {
	reps, err := c.Redirector.Locate(lfn)
	if err != nil {
		// An unknown LFN will stay unknown: no point re-asking.
		return nil, retry.Permanent(err)
	}
	reps = c.Selector.Order(reps)
	var firstErr error
	allPermanent := true
	for i, rep := range reps {
		f, err := c.openAt(lfn, rep)
		if err == nil {
			sp.Attr("replica", rep.Addr)
			sp.AttrInt("attempts", int64(i+1))
			return f, nil
		}
		if !retry.IsPermanent(err) {
			allPermanent = false
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	err = fmt.Errorf("xrootd: all %d replicas of %s failed: %w", len(reps), lfn, firstErr)
	if allPermanent {
		// %w keeps firstErr visible to errors.Is; the outer marker stops
		// the retry loop from re-running a pass that cannot succeed.
		err = retry.Permanent(err)
	}
	return nil, err
}

func (c *Client) openAt(lfn string, rep Replica) (*File, error) {
	idle := c.conns()
	f := &File{client: c, lfn: lfn, addr: rep.Addr, rep: rep}
	if f.wire = idle.take(rep.Addr); f.wire != nil {
		size, err := f.open()
		if err == nil {
			idle.reused.Inc()
			f.size = size
			return f, nil
		}
		if !f.broken { // answered in protocol: the file's error, a fine connection
			f.Close()
			c.Selector.ObserveError(rep)
			return nil, err
		}
		// The peer hung up while the connection sat idle, which says
		// nothing about the replica now: dial, at no cost to the
		// caller's retry budget.
		idle.stale.Inc()
		f.broken = false
	}
	timeout := c.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", rep.Addr, timeout)
	if err != nil {
		c.Selector.ObserveError(rep)
		return nil, fmt.Errorf("xrootd: dialing %s: %w", rep.Addr, err)
	}
	idle.dialed.Inc()
	conn = c.Fault.Conn("xrootd_client", conn)
	f.wire = &wire{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 8<<10),
	}
	size, err := f.open()
	if err != nil {
		f.fail(err)
		c.Selector.ObserveError(rep)
		return nil, err
	}
	f.size = size
	return f, nil
}

// request starts the command line "<verb> <lfn>" in the writer's own
// free space; the caller appends arguments and the newline and hands the
// line to roundTripLine. Nothing is allocated unless the line outgrows
// the writer's buffer.
func (f *File) request(verb string) []byte {
	b := append(f.w.AvailableBuffer(), verb...)
	b = append(b, ' ')
	return append(b, f.lfn...)
}

// roundTripLine sends one command line and returns the first response
// line, trimmed, valid until the next read on the connection. Transport
// failures close the connection; a "-1" response maps to *ServerError
// (permanent, connection intact — no payload follows an error line).
func (f *File) roundTripLine(cmd []byte) ([]byte, error) {
	if f.broken {
		return nil, errBroken
	}
	if t := f.client.OpTimeout; t > 0 {
		f.conn.SetDeadline(time.Now().Add(t))
	}
	if _, err := f.w.Write(cmd); err != nil {
		return nil, f.fail(err)
	}
	if err := f.w.Flush(); err != nil {
		return nil, f.fail(err)
	}
	line, err := f.r.ReadSlice('\n')
	if err != nil {
		return nil, f.fail(fmt.Errorf("xrootd: reading response: %w", err))
	}
	line = bytes.TrimRight(line, "\r\n")
	if msg, ok := bytes.CutPrefix(line, []byte("-1")); ok {
		return nil, &ServerError{Replica: f.addr, Msg: string(bytes.TrimSpace(msg))}
	}
	return line, nil
}

// roundTripSize is roundTripLine for the numeric responses: a
// non-numeric line maps to *ProtocolError (permanent, connection
// closed — the stream is desynchronised).
func (f *File) roundTripSize(cmd []byte) (int64, error) {
	line, err := f.roundTripLine(cmd)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		perr := &ProtocolError{Replica: f.addr, Msg: fmt.Sprintf("bad response %q", line)}
		f.fail(perr)
		return 0, perr
	}
	return n, nil
}

// open asks the replica on f's connection for the file's size.
func (f *File) open() (int64, error) {
	return f.roundTripSize(append(f.request("open"), '\n'))
}

// Stat asks the replica for the file's size and whole-content CRC32.
// ok is false when the server predates the stat command (it answered
// "-1 unknown command"); the connection stays usable either way unless
// a transport or protocol error is returned.
func (f *File) Stat() (size int64, crc uint32, ok bool, err error) {
	line, err := f.roundTripLine(append(f.request("stat"), '\n'))
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) {
			return f.size, 0, false, nil
		}
		return 0, 0, false, err
	}
	var c64 uint64
	if _, serr := fmt.Sscanf(string(line), "%d %x", &size, &c64); serr != nil || c64 > 1<<32-1 {
		perr := &ProtocolError{Replica: f.addr, Msg: fmt.Sprintf("bad stat response %q", line)}
		f.fail(perr)
		return 0, 0, false, perr
	}
	return size, uint32(c64), true, nil
}

// Size returns the file size.
func (f *File) Size() int64 { return f.size }

// LFN returns the file's logical name.
func (f *File) LFN() string { return f.lfn }

// Read implements io.Reader, streaming sequentially from the replica.
func (f *File) Read(p []byte) (int, error) {
	if f.offset >= f.size {
		return 0, io.EOF
	}
	n, err := f.ReadAt(p, f.offset)
	f.offset += int64(n)
	if err != nil {
		return n, err
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// ReadAt reads len(p) bytes at the given offset (shorter only at EOF).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	cmd := append(f.request("read"), ' ')
	cmd = append(strconv.AppendInt(cmd, off, 10), ' ')
	cmd = append(strconv.AppendInt(cmd, int64(len(p)), 10), '\n')
	n, err := f.roundTripSize(cmd)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > int64(len(p)) {
		perr := &ProtocolError{Replica: f.addr,
			Msg: fmt.Sprintf("server over-answered: %d bytes to a read of %d", n, len(p))}
		f.fail(perr)
		return 0, perr
	}
	if _, err := io.ReadFull(f.r, p[:n]); err != nil {
		return 0, f.fail(fmt.Errorf("xrootd: short payload: %w", err))
	}
	f.client.Dashboard.Record(f.client.Consumer, n)
	return int(n), nil
}

// Close gives the connection back to the client for the next open on
// this replica, or hangs up when the client has no room for it. A broken
// connection is already closed.
func (f *File) Close() error {
	if f.broken {
		return nil
	}
	f.broken = true
	if f.r.Buffered() == 0 && f.client.idle.park(f.addr, f.wire) {
		return nil
	}
	f.w.WriteString("quit\n")
	f.w.Flush()
	return f.conn.Close()
}

// Fetch reads the whole file into memory, the staging-style access:
// FetchTo into a bufpool.Arrival. The size the replica's open announced
// reserves the destination (one allocation up to bufpool.MaxSized, so a
// huge claim commits no memory) and every read, resumed or not, lands in it.
func (c *Client) Fetch(lfn string) ([]byte, error) {
	var land bufpool.Arrival
	if _, err := c.FetchTo(lfn, &land); err != nil {
		return nil, err
	}
	return land.Bytes(), nil
}

// FetchTo streams the whole file at lfn into w through pooled chunk
// buffers (a *bufpool.Arrival takes each read itself), returning the byte
// count. The positional read protocol makes retries resumable: a transport
// failure mid-fetch reopens the file (possibly on another replica) and
// continues at the byte where the previous attempt died, so the bytes
// already delivered to w are never re-fetched or duplicated. A sink (w)
// failure is permanent — a retry would feed the same broken sink.
func (c *Client) FetchTo(lfn string, w io.Writer) (int64, error) {
	var written int64
	err := c.Retry.Do(func() error {
		startT := time.Now()
		n, rep, err := c.fetchToOnce(lfn, w, written)
		written += n
		c.account(rep, n, time.Since(startT), err)
		return err
	})
	return written, err
}

// account feeds one attempt's outcome to the selector and the shared
// byte counter. Bytes are counted per attempt, stamped with the serving
// site, so a fetch that fails over mid-file attributes each span of
// bytes to the replica that actually served it.
func (c *Client) account(rep Replica, n int64, d time.Duration, err error) {
	if n > 0 {
		c.Selector.Observe(rep, n, d)
		if reg := c.Telemetry; reg != nil {
			reg.SiteBytes("xrootd_client", telemetry.DirIn, rep.Site).Add(n)
		}
	}
	if err != nil && rep.Addr != "" {
		c.Selector.ObserveError(rep)
	}
}

// fetchToOnce performs one fetch attempt starting at offset start,
// returning how many bytes it delivered to w and the replica that
// served them (the zero Replica when no replica was even opened). The
// outer policy in FetchTo owns backoff, so the open is a single pass.
func (c *Client) fetchToOnce(lfn string, w io.Writer, start int64) (int64, Replica, error) {
	f, err := c.openPass(lfn, nil)
	if err != nil {
		return 0, Replica{}, err
	}
	defer f.Close()
	if start > f.Size() {
		return 0, f.rep, retry.Permanent(fmt.Errorf(
			"xrootd: %s shrank to %d bytes below resume offset %d", lfn, f.Size(), start))
	}
	f.offset = start
	if land, ok := w.(*bufpool.Arrival); ok { // in memory: no chunk between wire and destination
		land.Announced = f.Size()
		n, err := land.ReadFrom(f)
		return n, f.rep, err
	}
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	var n int64
	for {
		m, err := f.Read(*buf)
		if m > 0 {
			wn, werr := w.Write((*buf)[:m])
			n += int64(wn)
			if werr == nil && wn < m {
				werr = io.ErrShortWrite
			}
			if werr != nil {
				return n, f.rep, retry.Permanent(fmt.Errorf("xrootd: writing payload to sink: %w", werr))
			}
		}
		if err == io.EOF {
			return n, f.rep, nil
		}
		if err != nil {
			return n, f.rep, err
		}
	}
}
