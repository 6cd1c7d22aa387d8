package chirp

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// Client is a connection to a chirp server. A client is not safe for
// concurrent use; open one per goroutine (connections are cheap and the
// server's slot cap is the intended throttle).
//
// Error handling: any transport failure (send, flush, read, short
// payload) closes the connection and marks the client broken — the line
// protocol has no resynchronisation point, so a half-finished exchange
// poisons every later operation on the same connection. Server-reported
// and protocol errors are returned as *ServerError / *ProtocolError and
// are permanent under the retry package's classification; transport
// errors are retryable on a fresh connection (see Pool).
type Client struct {
	conn   net.Conn
	addr   string
	r      *bufio.Reader
	w      *bufio.Writer
	broken bool

	// opTimeout bounds each protocol operation end to end via a
	// connection deadline set at operation start. Zero means no bound.
	opTimeout time.Duration

	tracer *trace.Tracer
	parent trace.Context

	// bytesIn/bytesOut are the lobster_bytes_total{chirp_client,…}
	// series; nil (the uninstrumented default) is a no-op.
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
}

// ClientOptions configures DialOpts.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect (default 30s).
	DialTimeout time.Duration
	// OpTimeout bounds each protocol operation (0 = unbounded).
	OpTimeout time.Duration
	// Fault, when non-nil, wraps the connection so reads and writes
	// consult the fault plane under component "chirp_client".
	Fault *faultinject.Injector
	// Telemetry, when non-nil, counts payload bytes this client moves
	// under lobster_bytes_total{component="chirp_client"}.
	Telemetry *telemetry.Registry
	// Site, when set, stamps the remote storage site on those byte
	// series (lobster_bytes_total{...,site=Site}) — the per-site
	// accounting axis of the paper's Figure 9. Empty leaves the label
	// off.
	Site string
}

// Dial connects to a chirp server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOpts(addr, ClientOptions{DialTimeout: timeout})
}

// DialOpts connects to a chirp server with explicit options.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("chirp: dialing %s: %w", addr, err)
	}
	conn = opts.Fault.Conn("chirp_client", conn)
	return &Client{
		conn:      conn,
		addr:      addr,
		r:         bufio.NewReaderSize(conn, 64<<10),
		w:         bufio.NewWriterSize(conn, 64<<10),
		opTimeout: opts.OpTimeout,
		bytesIn:   opts.Telemetry.SiteBytes("chirp_client", telemetry.DirIn, opts.Site),
		bytesOut:  opts.Telemetry.SiteBytes("chirp_client", telemetry.DirOut, opts.Site),
	}, nil
}

// Trace attaches a tracer and parent context: every subsequent
// operation records a client-side span (attributed to the server
// address, so the analyzer can pin slow stage-in to one storage
// element) and forwards its context to the server on a "trace"
// protocol line. A nil tracer or invalid parent leaves the client
// untraced at zero cost.
func (c *Client) Trace(tr *trace.Tracer, parent trace.Context) {
	c.tracer = tr
	c.parent = parent
}

// op opens the span for one protocol operation and, when sampled,
// forwards its context so the matching server span chains under it.
// The trace line carries no response; it rides the same flush as the
// command that follows. It also arms the per-op deadline.
func (c *Client) op(name string) *trace.Span {
	if c.opTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opTimeout))
	}
	if c.tracer == nil || !c.parent.Valid() {
		return nil
	}
	sp := c.tracer.Start(c.parent, "chirp", name)
	sp.Attr("server", c.addr)
	if sp.Sampled() {
		fmt.Fprintf(c.w, "trace %s\n", sp.Context().Encode())
	}
	return sp
}

// fail closes the connection after a transport failure and returns err
// unchanged. Every later operation short-circuits on the broken flag.
func (c *Client) fail(err error) error {
	if !c.broken {
		c.broken = true
		c.conn.Close()
	}
	return err
}

// Broken reports whether a transport failure has poisoned this
// connection. A broken client must be discarded and redialed.
func (c *Client) Broken() bool { return c.broken }

// errBroken is returned for operations attempted on a broken client.
var errBroken = fmt.Errorf("chirp: connection broken by earlier failure")

// Close sends quit and closes the connection. A broken connection is
// already closed; Close is then a no-op.
func (c *Client) Close() error {
	if c.broken {
		return nil
	}
	c.broken = true
	fmt.Fprint(c.w, "quit\n")
	c.w.Flush()
	return c.conn.Close()
}

// readStatusLine reads one response line, decoding "-1 <error>"
// responses into *ServerError (permanent; the connection stays usable —
// the server answered in protocol).
func (c *Client) readStatusLine(op string) (string, error) {
	line, err := readLine(c.r)
	if err != nil {
		return "", c.fail(fmt.Errorf("chirp: reading response: %w", err))
	}
	if strings.HasPrefix(line, "-1 ") {
		return "", &ServerError{Op: op, Msg: strings.TrimPrefix(line, "-1 ")}
	}
	if line == "-1" {
		return "", &ServerError{Op: op, Msg: "unspecified error"}
	}
	return line, nil
}

// protoErr records a malformed response and closes the connection: a
// peer that answered out of protocol has desynchronised the stream.
func (c *Client) protoErr(op, format string, args ...any) error {
	err := &ProtocolError{Op: op, Msg: fmt.Sprintf(format, args...)}
	c.fail(err)
	return err
}

// GetFileTo fetches the file at path, streaming it into w with no
// payload-sized allocation on either side: what the protocol reader
// already holds is written straight out of its buffer, the rest moves
// through one pooled chunk — or, when w is an *os.File and the connection
// an unwrapped TCP socket, by kernel splice without crossing user space.
//
// A sink (w) failure is permanent: the remaining payload is drained off
// the wire so the connection stays usable, and the sink's error is
// returned. Transport failures poison the connection as usual. The
// number of bytes written to w is returned in both cases.
func (c *Client) GetFileTo(path string, w io.Writer) (int64, error) {
	if c.broken {
		return 0, errBroken
	}
	sp := c.op("get")
	defer sp.End()
	if err := c.send("getfile %s\n", path); err != nil {
		return 0, err
	}
	line, err := c.readStatusLine("getfile")
	if err != nil {
		return 0, err
	}
	size, err := strconv.ParseInt(line, 10, 64)
	if err != nil || size < 0 || size > MaxPayload {
		return 0, c.protoErr("getfile", "bad size response %q", line)
	}
	written, err := c.readPayload(w, size)
	if err != nil {
		return written, err
	}
	c.bytesIn.Add(size)
	sp.AttrInt("bytes", size)
	return written, nil
}

// writeBuffered writes up to n of the bytes r already holds to w straight
// out of r's buffer — one Write, no intermediate copy — and reports how
// many left the buffer.
func writeBuffered(w io.Writer, r *bufio.Reader, n int64) (int64, error) {
	p, _ := r.Peek(int(min(int64(r.Buffered()), n)))
	if len(p) == 0 {
		return 0, nil
	}
	m, err := w.Write(p)
	r.Discard(m)
	return int64(m), err
}

// readPayload consumes exactly size payload bytes from the wire,
// delivering them to w. Sink errors do not desynchronise the protocol:
// the remainder is drained and the sink error is returned as permanent
// (a retry would feed the same broken sink).
func (c *Client) readPayload(w io.Writer, size int64) (int64, error) {
	if land, ok := w.(*bufpool.Arrival); ok { // in memory: no sink to fail, no chunk between
		land.Announced = size
		n, err := land.ReadFrom(c.r)
		if n < size {
			return n, c.fail(fmt.Errorf("chirp: short read: %w", cmp.Or(err, io.ErrUnexpectedEOF)))
		}
		return n, nil
	}
	sink := &sinkWriter{w: w}
	// What the bufio reader already holds first, then the rest straight
	// off the connection so file sinks can use kernel offload.
	consumed, _ := writeBuffered(sink, c.r, size)
	if remaining := size - consumed; remaining > 0 {
		if f, ok := w.(*os.File); ok && sink.err == nil {
			return c.spliceTail(f, sink.n, remaining)
		}
		if _, err := bufpool.CopyN(sink, c.conn, remaining); err != nil {
			return sink.n, c.fail(fmt.Errorf("chirp: short read: %w", err))
		}
	}
	if sink.err != nil {
		return sink.n, retry.Permanent(fmt.Errorf("chirp: writing payload to sink: %w", sink.err))
	}
	return sink.n, nil
}

// spliceTail moves the unbuffered remainder of a payload into a file
// sink — kernel splice on an unwrapped TCP connection, a pooled chunk
// on a wrapped one. A short transfer is disambiguated by draining what
// the wire still owes: if the drain succeeds the wire was healthy, so the
// file (sink) failed and the error is permanent with the connection
// intact; otherwise the transport is at fault and poisons the
// connection. prior is what the sink already received from the bufio
// buffer.
func (c *Client) spliceTail(f *os.File, prior, remaining int64) (int64, error) {
	m, err := bufpool.CopyN(f, c.conn, remaining)
	written := prior + m
	if m < remaining {
		dn, derr := bufpool.CopyN(io.Discard, c.conn, remaining-m)
		if derr != nil || dn != remaining-m {
			return written, c.fail(fmt.Errorf("chirp: short read: %w", err))
		}
	}
	if err != nil {
		return written, retry.Permanent(fmt.Errorf("chirp: writing payload to sink: %w", err))
	}
	return written, nil
}

// sinkWriter tracks the caller's sink separately from the wire: once
// the sink fails, further chunks are swallowed (claiming success) so
// the payload keeps draining and the connection survives.
type sinkWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (s *sinkWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return len(p), nil
	}
	n, err := s.w.Write(p)
	s.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	s.err = err
	return len(p), nil
}

// GetFile fetches the file at path into memory: GetFileTo into a
// bufpool.Arrival. The size line reserves the destination (one allocation
// up to bufpool.MaxSized, so a huge claim commits no memory; none at all
// for an empty file) and the payload is read straight into it.
func (c *Client) GetFile(path string) ([]byte, error) {
	var land bufpool.Arrival
	if _, err := c.GetFileTo(path, &land); err != nil {
		return nil, err
	}
	return land.Bytes(), nil
}

// PutFileFrom creates or replaces the file at path with exactly size
// bytes streamed from r through a pooled chunk. File readers hand off to
// sendfile where the kernel supports it; a *bytes.Reader holding exactly
// size bytes is written as the slice it is. A reader that delivers fewer
// than size bytes poisons the connection (the announced payload length
// cannot be unsent) and surfaces as a permanent error: the caller's
// source, not the transport, is at fault.
func (c *Client) PutFileFrom(path string, r io.Reader, size int64) error {
	return c.streamOut("put", "putfile", path, r, size)
}

// AppendFrom appends exactly size bytes streamed from r to the file at
// path, with the same contract as PutFileFrom.
func (c *Client) AppendFrom(path string, r io.Reader, size int64) error {
	return c.streamOut("append", "append", path, r, size)
}

func (c *Client) streamOut(op, cmd, path string, r io.Reader, size int64) error {
	if c.broken {
		return errBroken
	}
	if size < 0 || size > MaxPayload {
		return retry.Permanent(fmt.Errorf("chirp: bad payload size %d", size))
	}
	sp := c.op(op)
	sp.AttrInt("bytes", size)
	defer sp.End()
	if err := checkPath(path); err != nil {
		return err
	}
	// Command line and payload share one flush: the header rides the
	// front of the first payload chunk instead of its own packet.
	if _, err := fmt.Fprintf(c.w, "%s %s %d\n", cmd, path, size); err != nil {
		return c.fail(fmt.Errorf("chirp: sending request: %w", err))
	}
	if size > 0 {
		var n int64
		var err error
		if mem, ok := r.(*bytes.Reader); ok && int64(mem.Len()) == size {
			// Bytes already in memory go out as one Write of the whole
			// slice behind the header, not chunk by chunk through a Reader.
			n, err = mem.WriteTo(c.w)
		} else {
			// A file source rides the bufio writer's ReadFrom to the
			// connection's sendfile once the header has drained.
			n, err = bufpool.CopyN(c.w, r, size)
		}
		if err != nil {
			werr := c.fail(fmt.Errorf("chirp: sending payload (%d/%d bytes): %w", n, size, err))
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				// The source underdelivered: no redial can complete
				// this payload, so don't let the retry layer try.
				return retry.Permanent(werr)
			}
			return werr
		}
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(fmt.Errorf("chirp: sending payload: %w", err))
	}
	if _, err := c.readStatusLine(cmd); err != nil {
		return err
	}
	c.bytesOut.Add(size)
	return nil
}

// PutFile creates or replaces the file at path. PutFile is idempotent:
// a retried put that already landed simply rewrites the same bytes.
// It is a thin wrapper over PutFileFrom.
func (c *Client) PutFile(path string, data []byte) error {
	return c.PutFileFrom(path, bytes.NewReader(data), int64(len(data)))
}

// Append appends data to the file at path via AppendFrom.
func (c *Client) Append(path string, data []byte) error {
	return c.AppendFrom(path, bytes.NewReader(data), int64(len(data)))
}

// Stat returns info for the entry at path.
func (c *Client) Stat(path string) (FileInfo, error) {
	info, _, err := c.stat("stat %s\n", path, false)
	return info, err
}

// StatCRC is Stat plus the IEEE CRC32 of a regular file's content, which
// the server computes: one round trip and no payload tell the holder of
// a copy whether it is still current. A directory has no checksum (0).
func (c *Client) StatCRC(path string) (FileInfo, uint32, error) {
	return c.stat("stat %s crc\n", path, true)
}

func (c *Client) stat(format, path string, wantCRC bool) (FileInfo, uint32, error) {
	if c.broken {
		return FileInfo{}, 0, errBroken
	}
	sp := c.op("stat")
	defer sp.End()
	if err := c.send(format, path); err != nil {
		return FileInfo{}, 0, err
	}
	line, err := c.readStatusLine("stat")
	if err != nil {
		return FileInfo{}, 0, err
	}
	var size int64
	var kind string
	var crc uint32
	// Size and kind are the whole answer, except that a regular file
	// asked for its checksum must come with one.
	n, _ := fmt.Sscanf(line, "%d %s %x", &size, &kind, &crc)
	if n < 2 || (wantCRC && kind != "dir" && n != 3) {
		return FileInfo{}, 0, c.protoErr("stat", "bad stat response %q", line)
	}
	return FileInfo{Name: path, Size: size, IsDir: kind == "dir"}, crc, nil
}

// List returns the entries of the directory at path.
func (c *Client) List(path string) ([]FileInfo, error) {
	if c.broken {
		return nil, errBroken
	}
	sp := c.op("ls")
	defer sp.End()
	if err := c.send("ls %s\n", path); err != nil {
		return nil, err
	}
	line, err := c.readStatusLine("ls")
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(line)
	if err != nil || n < 0 {
		return nil, c.protoErr("ls", "bad count response %q", line)
	}
	out := make([]FileInfo, 0, n)
	for i := 0; i < n; i++ {
		entry, err := readLine(c.r)
		if err != nil {
			return nil, c.fail(fmt.Errorf("chirp: truncated listing: %w", err))
		}
		parts := strings.SplitN(entry, " ", 3)
		if len(parts) != 3 {
			return nil, c.protoErr("ls", "bad listing line %q", entry)
		}
		size, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, c.protoErr("ls", "bad listing size %q", parts[0])
		}
		out = append(out, FileInfo{Name: parts[2], Size: size, IsDir: parts[1] == "d"})
	}
	return out, nil
}

// Unlink removes the file at path. Callers retrying an unlink should
// tolerate ErrNotExist: the first attempt may have removed the file
// before its response was lost.
func (c *Client) Unlink(path string) error {
	if c.broken {
		return errBroken
	}
	sp := c.op("unlink")
	defer sp.End()
	if err := c.send("unlink %s\n", path); err != nil {
		return err
	}
	_, err := c.readStatusLine("unlink")
	return err
}

// checkPath rejects paths with whitespace or newlines: the line
// protocol cannot carry them, and silently mangling paths would corrupt
// data. This is a caller bug, not a transport fault — permanent,
// connection intact.
func checkPath(path string) error {
	if strings.ContainsAny(path, " \t\r\n") {
		return retry.Permanent(fmt.Errorf("chirp: path %q contains whitespace", path))
	}
	return nil
}

func (c *Client) send(format string, args ...any) error {
	for _, a := range args {
		if s, ok := a.(string); ok {
			if err := checkPath(s); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(c.w, format, args...); err != nil {
		return c.fail(fmt.Errorf("chirp: sending request: %w", err))
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(fmt.Errorf("chirp: sending request: %w", err))
	}
	return nil
}
