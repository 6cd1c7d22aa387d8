package chirp

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Client is a connection to a chirp server. A client is not safe for
// concurrent use; open one per goroutine (connections are cheap and the
// server's slot cap is the intended throttle).
//
// Error handling: any transport failure (send, flush, read, short
// payload) breaks the connection — a wire.Conn, which the line protocol's
// lack of a resynchronisation point makes poison every later operation.
// Server-reported and protocol errors are *wire.ServerError /
// *wire.ProtocolError and are permanent under the retry package's
// classification; transport errors are retryable on a fresh connection
// (see Pool).
type Client struct {
	conn *wire.Conn
	addr string

	// tracer and parent trace the operations of one Pool call: each one
	// records a client-side span attributed to the server address, so the
	// analyzer can pin slow stage-in to one storage element, and forwards
	// its context on a "trace" line. Nil leaves the client untraced.
	tracer *trace.Tracer
	parent trace.Context

	// bytesIn/bytesOut are the lobster_bytes_total{chirp_client,…}
	// series; nil (the uninstrumented default) is a no-op.
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
}

// Dial connects to a chirp server (timeout 0: 30 s).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return connect(addr, timeout, nil, nil, nil)
}

// connect is Dial with the fault plane and byte counters a Pool gives its
// connections.
func connect(addr string, timeout time.Duration, fault *faultinject.Injector, bytesIn, bytesOut *telemetry.Counter) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("chirp: dialing %s: %w", addr, err)
	}
	return &Client{
		conn:     wire.NewConn("chirp", fault.Conn("chirp_client", conn), 64<<10, 64<<10),
		addr:     addr,
		bytesIn:  bytesIn,
		bytesOut: bytesOut,
	}, nil
}

// op opens the span for one protocol operation and, when sampled,
// forwards its context so the matching server span chains under it.
// The trace line carries no response; it rides the same flush as the
// command that follows. An operation on a broken connection fails before
// it sends anything, untraced.
func (c *Client) op(name string) *trace.Span {
	if c.tracer == nil || !c.parent.Valid() || c.conn.Broken() {
		return nil
	}
	sp := c.tracer.Start(c.parent, "chirp", name)
	sp.Attr("server", c.addr)
	if sp.Sampled() {
		fmt.Fprintf(c.conn.W, "trace %s\n", sp.Context().Encode())
	}
	return sp
}

// Close sends quit and closes the connection. A broken connection is
// already closed; Close is then a no-op.
func (c *Client) Close() error { return c.conn.Close() }

// request sends the command line "<verb> <path><tail>\n", built in the
// writer's own free space. A path the line cannot carry is refused.
func (c *Client) request(verb, path, tail string) error {
	if err := checkPath(path); err != nil {
		return err
	}
	cmd := append(c.conn.W.AvailableBuffer(), verb...)
	cmd = append(append(cmd, ' '), path...)
	return c.conn.Send(append(append(cmd, tail...), '\n'))
}

// GetFileTo fetches the file at path, streaming it into w with no
// payload-sized allocation on either side (wire.Conn.ReadPayload): what
// the protocol reader already holds is written straight out of its
// buffer, the rest moves through one pooled chunk — or, when w is an
// *os.File and the connection an unwrapped TCP socket, by kernel splice
// without crossing user space.
//
// A sink (w) failure is permanent: the remaining payload is drained off
// the wire so the connection stays usable, and the sink's error is
// returned. A file sink that fails in the spliced tail is the exception:
// nothing counts what the kernel took off the socket, so the connection
// breaks and the error is retryable (Pool.FetchToTraced recreates the file on
// each attempt). Transport failures poison the connection as usual. The
// number of bytes written to w is returned in every case.
func (c *Client) GetFileTo(path string, w io.Writer) (int64, error) {
	sp := c.op("get")
	defer sp.End()
	if err := c.request("getfile", path, ""); err != nil {
		return 0, err
	}
	size, err := c.conn.ReadSize(MaxPayload)
	if err != nil {
		return 0, err
	}
	written, err := c.conn.ReadPayload(w, size)
	if err != nil {
		return written, err
	}
	c.bytesIn.Add(size)
	sp.AttrInt("bytes", size)
	return written, nil
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
// sendfile where the kernel supports it; bytes already in memory belong
// in PutFile, which writes the slice as it is. A reader that delivers
// fewer than size bytes poisons the connection (the announced payload
// length cannot be unsent) and surfaces as a permanent error: the
// caller's source, not the transport, is at fault.
func (c *Client) PutFileFrom(path string, r io.Reader, size int64) error {
	return c.put(path, r, nil, size)
}

// PutFile creates or replaces the file at path. PutFile is idempotent:
// a retried put that already landed simply rewrites the same bytes.
func (c *Client) PutFile(path string, data []byte) error {
	return c.put(path, nil, data, int64(len(data)))
}

// put sends one putfile of size bytes: data when r is nil, else what r
// delivers.
func (c *Client) put(path string, r io.Reader, data []byte, size int64) error {
	if err := c.conn.Err(); err != nil {
		return err
	}
	if size < 0 || size > MaxPayload {
		return retry.Permanent(fmt.Errorf("chirp: bad payload size %d", size))
	}
	sp := c.op("put")
	sp.AttrInt("bytes", size)
	defer sp.End()
	if err := checkPath(path); err != nil {
		return err
	}
	// Command line and payload share one flush: the header rides the
	// front of the first payload chunk instead of its own packet.
	w := c.conn.W
	head := append(append(append(w.AvailableBuffer(), "putfile"...), ' '), path...)
	w.Write(append(strconv.AppendInt(append(head, ' '), size, 10), '\n'))
	if size > 0 {
		var n int64
		var err error
		if r == nil {
			// Bytes already in memory go out as one Write of the whole
			// slice behind the header, not chunk by chunk through a Reader.
			var k int
			k, err = w.Write(data)
			if n = int64(k); err == nil && n < size {
				err = io.ErrUnexpectedEOF // PutFileFrom with a nil reader
			}
		} else {
			// A file source rides the bufio writer's ReadFrom to the
			// connection's sendfile once the header has drained.
			n, err = bufpool.CopyN(w, r, size)
		}
		if err != nil {
			werr := c.conn.Fail(fmt.Errorf("chirp: sending payload (%d/%d bytes): %w", n, size, err))
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				// The source underdelivered: no redial can complete
				// this payload, so don't let the retry layer try.
				return retry.Permanent(werr)
			}
			return werr
		}
	}
	if err := c.conn.Send(nil); err != nil {
		return err
	}
	if _, err := c.conn.ReadStatus(); err != nil {
		return err
	}
	c.bytesOut.Add(size)
	return nil
}

// Stat returns info for the entry at path.
func (c *Client) Stat(path string) (FileInfo, error) {
	info, _, err := c.stat(path, "")
	return info, err
}

// StatCRC is Stat plus the IEEE CRC32 of a regular file's content, which
// the server computes: one round trip and no payload tell the holder of
// a copy whether it is still current. A directory has no checksum (0).
func (c *Client) StatCRC(path string) (FileInfo, uint32, error) {
	return c.stat(path, " crc")
}

func (c *Client) stat(path, tail string) (FileInfo, uint32, error) {
	sp := c.op("stat")
	defer sp.End()
	if err := c.request("stat", path, tail); err != nil {
		return FileInfo{}, 0, err
	}
	line, err := c.conn.ReadStatus()
	if err != nil {
		return FileInfo{}, 0, err
	}
	// Size and kind are the whole answer, except that a regular file
	// asked for its checksum must come with one.
	var buf [3][]byte
	fields := wire.Fields(line, buf[:0])
	isDir := len(fields) > 1 && string(fields[1]) == "dir"
	wantCRC := tail != "" && !isDir
	var crc uint64
	if wantCRC && len(fields) == 3 {
		crc, err = strconv.ParseUint(string(fields[2]), 16, 32)
	}
	if len(fields) < 2 || err != nil || (wantCRC && len(fields) != 3) {
		return FileInfo{}, 0, c.conn.Protocol("bad stat response %q", line)
	}
	size, err := c.conn.ParseSize(fields[0], math.MaxInt64)
	if err != nil {
		return FileInfo{}, 0, err
	}
	return FileInfo{Name: path, Size: size, IsDir: isDir}, uint32(crc), nil
}

// List returns the entries of the directory at path.
func (c *Client) List(path string) ([]FileInfo, error) {
	sp := c.op("ls")
	defer sp.End()
	if err := c.request("ls", path, ""); err != nil {
		return nil, err
	}
	// The count reserves nothing: entries are appended as they arrive.
	n, err := c.conn.ReadSize(MaxPayload)
	if err != nil {
		return nil, err
	}
	var out []FileInfo
	for ; n > 0; n-- {
		entry, err := c.conn.ReadLine()
		if err != nil {
			return nil, err
		}
		parts := bytes.SplitN(entry, []byte(" "), 3)
		if len(parts) != 3 {
			return nil, c.conn.Protocol("bad listing line %q", entry)
		}
		size, err := c.conn.ParseSize(parts[0], math.MaxInt64)
		if err != nil {
			return nil, err
		}
		out = append(out, FileInfo{Name: string(parts[2]), Size: size, IsDir: string(parts[1]) == "d"})
	}
	return out, nil
}

// Unlink removes the file at path. Callers retrying an unlink should
// tolerate wire.ErrNotExist: the first attempt may have removed the file
// before its response was lost.
func (c *Client) Unlink(path string) error {
	sp := c.op("unlink")
	defer sp.End()
	if err := c.request("unlink", path, ""); err != nil {
		return err
	}
	_, err := c.conn.ReadStatus()
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
