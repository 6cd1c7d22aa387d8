package xrootd

import (
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Client opens LFNs through a redirector, streaming content from whichever
// replica answers and failing over between replicas on error. Consumer names
// the accounting entity (site or user) for the Dashboard.
//
// Failure handling: each replica pass tries every replica once, skipping
// to the next on transport failures and stopping early on permanent
// (server-reported or protocol) errors — wire.ServerError and
// wire.ProtocolError. When Retry is configured, whole passes repeat under
// bounded exponential backoff — the WAN read path in the paper's
// environment sees transient replica outages that clear within seconds,
// so a second pass usually lands.
type Client struct {
	Redirector *Redirector
	Dashboard  *Dashboard
	Consumer   string
	// Retry bounds repeated replica passes on transport failures. The
	// zero Policy keeps the old behaviour: one pass, fail over between
	// replicas, surface the first error when all fail.
	Retry retry.Policy
	// Fault, when non-nil, wires replica connections into the fault
	// plane under component "xrootd_client".
	Fault *faultinject.Injector
	// Telemetry, when non-nil, counts every payload byte a read receives
	// under lobster_bytes_total{component="xrootd_client",site=...}, one
	// series per serving site — the Figure 9 accounting shape — and the
	// connections opens use under lobster_xrootd_client_conns_total.
	Telemetry *telemetry.Registry

	// The protocol is stateless per command (every open and read names
	// its LFN), so a connection that served one File serves the
	// next as it is: File.Close parks it here. Built on first use; a
	// Client must not be copied after that.
	once sync.Once
	pool *wire.Pool[*wire.Conn]
}

func (c *Client) conns() *wire.Pool[*wire.Conn] {
	c.once.Do(func() {
		c.pool = wire.NewPool(c.Telemetry, "lobster_xrootd_client_conns_total", c.dial,
			func(w *wire.Conn) *wire.Conn { return w })
	})
	return c.pool
}

func (c *Client) dial(addr string) (*wire.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("xrootd: dialing %s: %w", addr, err)
	}
	return wire.NewConn("xrootd", c.Fault.Conn("xrootd_client", conn), 64<<10, 8<<10), nil
}

// Close hangs up the parked connections. The client stays usable, but
// from here on every File.Close hangs up too.
func (c *Client) Close() error { return c.conns().Close() }

// File is an open remote file. Not safe for concurrent use.
//
// Any transport failure breaks the file's connection: later operations
// fail at once, retryable — reopen and try again.
type File struct {
	client *Client
	lfn    string
	size   int64
	offset int64
	conn   *wire.Conn // nil once Close gave it back
	rep    Replica    // the replica serving this connection
	// siteBytes is the serving site's lobster_bytes_total series, nil
	// when the client has no Telemetry.
	siteBytes *telemetry.Counter
}

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

// openAt opens lfn at rep on a parked connection or a fresh dial. A
// parked one the peer hung up on is replaced by a dial at no cost to the
// caller's retry budget.
func (c *Client) openAt(lfn string, rep Replica) (*File, error) {
	f := &File{client: c, lfn: lfn, rep: rep}
	conn, err := c.conns().Take(rep.Addr, func(conn *wire.Conn) (err error) {
		f.conn = conn
		f.size, err = f.roundTrip(append(f.request("open"), '\n'), math.MaxInt64)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.conn = conn
	f.siteBytes = c.Telemetry.SiteBytes("xrootd_client", telemetry.DirIn, rep.Site)
	return f, nil
}

// request starts the command line "<verb> <lfn>" in the writer's own
// free space; the caller appends arguments and the newline and hands the
// line to roundTrip. Nothing is allocated unless the line outgrows the
// writer's buffer.
func (f *File) request(verb string) []byte {
	b := append(f.conn.W.AvailableBuffer(), verb...)
	b = append(b, ' ')
	return append(b, f.lfn...)
}

// roundTrip sends one command line and returns the size its reply
// announces, at most max.
func (f *File) roundTrip(cmd []byte, max int64) (int64, error) {
	if err := f.conn.Send(cmd); err != nil {
		return 0, err
	}
	return f.conn.ReadSize(max)
}

// Size returns the file size.
func (f *File) Size() int64 { return f.size }

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

// ReadAt reads len(p) bytes at the given offset (shorter only at EOF). A
// reply that announces more than len(p) is a protocol error. The bytes
// count for the consumer on the Dashboard and for the serving site on
// the client's Telemetry.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := f.conn.Err(); err != nil {
		return 0, err
	}
	cmd := append(f.request("read"), ' ')
	cmd = append(strconv.AppendInt(cmd, off, 10), ' ')
	cmd = append(strconv.AppendInt(cmd, int64(len(p)), 10), '\n')
	n, err := f.roundTrip(cmd, int64(len(p)))
	if err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(f.conn.R, p[:n]); err != nil {
		return 0, f.conn.Fail(fmt.Errorf("xrootd: short payload: %w", err))
	}
	f.client.Dashboard.Record(f.client.Consumer, n)
	f.siteBytes.Add(n)
	return int(n), nil
}

// Close gives the connection back to the client for the next open on
// this replica; the client hangs it up when it has no room for it or it
// broke.
func (f *File) Close() error {
	if f.conn != nil {
		f.client.conns().Put(f.rep.Addr, f.conn)
		f.conn = nil
	}
	return nil
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
// already delivered to w are never re-fetched or duplicated. Every read
// goes through File.ReadAt, so each attempt's bytes count for the site
// that served them. A sink (w) failure is permanent — a retry would feed
// the same broken sink.
func (c *Client) FetchTo(lfn string, w io.Writer) (int64, error) {
	var written int64
	err := c.Retry.Do(func() error {
		n, err := c.fetchToOnce(lfn, w, written)
		written += n
		return err
	})
	return written, err
}

// fetchToOnce performs one fetch attempt starting at offset start,
// returning how many bytes it delivered to w. The outer policy in
// FetchTo owns backoff, so the open is a single pass.
func (c *Client) fetchToOnce(lfn string, w io.Writer, start int64) (int64, error) {
	f, err := c.openPass(lfn, nil)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if start > f.Size() {
		return 0, retry.Permanent(fmt.Errorf(
			"xrootd: %s shrank to %d bytes below resume offset %d", lfn, f.Size(), start))
	}
	f.offset = start
	if land, ok := w.(*bufpool.Arrival); ok { // in memory: no chunk between wire and destination
		land.Announced = f.Size()
		return land.ReadFrom(f)
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
				return n, retry.Permanent(fmt.Errorf("xrootd: writing payload to sink: %w", werr))
			}
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}
