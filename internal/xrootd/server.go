package xrootd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"lobster/internal/bufpool"
	"lobster/internal/telemetry"
	"lobster/internal/wire"
)

// Protocol (one text line per request; binary payloads follow):
//
//	open <lfn>                 → "<size>\n" | "-1 <error>\n"
//	read <lfn> <offset> <len>  → "<n>\n" + n bytes | "-1 <error>\n"
//	quit                       → closes the connection
//
// read returns fewer than len bytes only at end of file.

// DataServer serves file content by LFN over TCP for one site. What it
// stores lives in one spool file, never on the heap: the stored files lie
// end to end in it, each written once, and every connection answers reads
// with positional ReadAt on the one handle. The spool is unlinked as soon as it exists, so the handle
// is all there is of it and a process that dies leaves nothing on disk.
type DataServer struct {
	site  string
	srv   *wire.Server
	spool *os.File

	// storing admits one StoreFrom at a time, so a file is one unbroken
	// range of the spool; end, under it, is where the next one starts.
	storing sync.Mutex
	end     int64

	mu    sync.RWMutex
	files map[string]stored

	closed      atomic.Bool
	down        atomic.Bool // fault injection: refuse all requests
	reads       telemetry.Counter
	bytesOut    telemetry.Counter
	storedBytes atomic.Int64
}

// stored is where one file's bytes lie in the spool.
type stored struct{ off, size int64 }

// spoolWriter is what a StoreFrom fill writes through: the bytes go to
// the spool from off on, the size kept as they go by.
type spoolWriter struct {
	f *os.File
	stored
}

// spoolWrite is the most one write hands the spool. The page cache backs
// a buffered write with folios as large as the write, and a host whose
// free memory has sat idle for a few seconds hands out 1 MiB folios at a
// tenth of the speed of 32 KiB ones (order 3, the largest the per-CPU
// page lists serve): 0.7-1.1 s against 0.06 s for 128 MiB, which is a
// stack's whole set-up (EXPERIMENTS.md, "The dataset lives on disk").
const spoolWrite = 32 << 10

func (w *spoolWriter) Write(p []byte) (n int, err error) {
	for len(p) > 0 && err == nil {
		var m int
		m, err = w.f.WriteAt(p[:min(len(p), spoolWrite)], w.off+w.size)
		w.size += int64(m)
		n, p = n+m, p[m:]
	}
	return n, err
}

// NewDataServer starts a data server for site on addr ("127.0.0.1:0").
func NewDataServer(site, addr string) (*DataServer, error) {
	spool, err := os.CreateTemp("", "lobster-xrootd-*")
	if err == nil {
		err = os.Remove(spool.Name())
	}
	if err != nil {
		return nil, fmt.Errorf("xrootd: spool: %w", err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		spool.Close()
		return nil, fmt.Errorf("xrootd: listening: %w", err)
	}
	s := &DataServer{site: site, spool: spool, files: make(map[string]stored)}
	s.srv = wire.Serve(lis, s.serveConn)
	return s, nil
}

// Addr returns the server's listen address.
func (s *DataServer) Addr() string { return s.srv.Addr() }

// StoreFrom installs as lfn whatever fill writes and returns the replica
// descriptor to register with a redirector. The bytes go straight to the
// spool, so a caller that produces them chunk by chunk never holds the
// file whole. A failed fill leaves lfn as it was, and what it wrote is
// overwritten by the next store. Storing an lfn again replaces it for
// every read that starts afterwards; the bytes it had stay in the spool
// until Close, so a read in flight finishes on what it started on.
func (s *DataServer) StoreFrom(lfn string, fill func(io.Writer) error) (Replica, error) {
	s.storing.Lock()
	defer s.storing.Unlock()
	w := &spoolWriter{f: s.spool, stored: stored{off: s.end}}
	err := fill(w)
	if err == nil {
		err = s.install(lfn, w.stored)
	}
	if err != nil {
		return Replica{}, fmt.Errorf("xrootd: spooling %s: %w", lfn, err)
	}
	s.end += w.size
	return Replica{Site: s.site, Addr: s.Addr()}, nil
}

// install puts st in the table under lfn.
func (s *DataServer) install(lfn string, st stored) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() { // Close may already have swept the table
		return net.ErrClosed
	}
	s.storedBytes.Add(st.size - s.files[lfn].size)
	s.files[lfn] = st
	return nil
}

// SetDown toggles fault injection: while down, every request errors. This
// models the transient WAN data-access outage in the paper's Figure 10.
func (s *DataServer) SetDown(down bool) { s.down.Store(down) }

// Instrument publishes the server's counters on reg and exports its
// gauges, read at scrape time; a nil registry is a no-op. One data server
// per registry: the series carry no site label.
func (s *DataServer) Instrument(reg *telemetry.Registry) {
	reg.CounterVec("lobster_xrootd_server_reads_total",
		"Read requests the data server answered with payload.").Publish(&s.reads)
	reg.CounterVec("lobster_xrootd_server_bytes_total",
		"Payload bytes the data server sent.").Publish(&s.bytesOut)
	reg.GaugeFunc("lobster_xrootd_server_open_conns",
		"Client connections open on the data server right now, parked ones included.",
		func() float64 { return float64(s.srv.Conns()) })
	reg.GaugeFunc("lobster_xrootd_server_stored_bytes",
		"Bytes of file content the data server serves from its spool.",
		func() float64 { return float64(s.storedBytes.Load()) })
}

// Close stops accepting, hangs up every open connection and waits for
// their handlers: clients park connections between files, and an idle
// one must not be able to stall shutdown. The spool goes last, once no
// handler can be reading it.
func (s *DataServer) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.srv.Close()
	s.mu.Lock()
	s.files = nil
	s.mu.Unlock()
	s.spool.Close()
	return err
}

// serveConn answers one connection's requests. The line is read in place,
// so one longer than the reader's buffer (an LFN of 32 KiB) ends the
// connection. No request carries a payload, so dispatch reads nothing.
func (s *DataServer) serveConn(conn net.Conn) {
	wire.ServeLines("xrootd", conn, 32<<10, 64<<10, func(line []byte, c *wire.Conn) error {
		return s.dispatch(line, nil, c.W)
	})
}

// lookup finds where lfn's bytes lie.
func (s *DataServer) lookup(lfn []byte) (stored, error) {
	s.mu.RLock()
	st, ok := s.files[string(lfn)]
	s.mu.RUnlock()
	if !ok {
		return stored{}, fmt.Errorf("no such file %s", lfn)
	}
	return st, nil
}

// dispatch answers one command line into w. An error that is not a
// wire.Hangup means nothing was written, and the caller reports it in
// protocol.
func (s *DataServer) dispatch(line []byte, _ *bufio.Reader, w *bufio.Writer) error {
	if s.down.Load() {
		return errors.New("server unavailable")
	}
	// No command takes more than three arguments; a fifth field only has
	// to be seen to be refused.
	var buf [5][]byte
	fields := wire.Fields(line, buf[:0])
	if len(fields) == 0 {
		return errors.New("empty command")
	}
	switch string(fields[0]) {
	case "open":
		if len(fields) != 2 {
			return errors.New("usage: open <lfn>")
		}
		st, err := s.lookup(fields[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\n", st.size)
		return nil
	case "read":
		if len(fields) != 4 {
			return errors.New("usage: read <lfn> <offset> <len>")
		}
		off, err1 := strconv.ParseInt(string(fields[2]), 10, 64)
		n, err2 := strconv.ParseInt(string(fields[3]), 10, 64)
		if err1 != nil || err2 != nil || off < 0 || n < 0 {
			return errors.New("bad offset or length")
		}
		st, err := s.lookup(fields[1])
		if err != nil {
			return err
		}
		// A request reaching past EOF is truncated there; off+n may
		// overflow int64, the subtraction cannot.
		off = min(off, st.size)
		n = min(n, st.size-off)
		return s.sendRange(w, st.off+off, n)
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}

// sizeLineMax bounds a "<n>\n" reply line: an int64 has 19 digits.
const sizeLineMax = 20

// sendRange writes a read's reply, the size line and then the spool's n
// bytes at off, into w with no buffer of its own. A reply that fits what w has
// free is assembled in w's buffer by ReadAt, so it leaves in one write;
// a larger one goes through a pooled chunk, its size line riding at the
// head of the first so that chunk is one write too. The counters move
// before each write: a chunk larger than w's buffer reaches the client
// inside Write, and a client that has its bytes must find them counted.
func (s *DataServer) sendRange(w *bufio.Writer, off, n int64) error {
	chunk := w.AvailableBuffer()
	chunk = chunk[:cap(chunk)]
	if int64(len(chunk)) < sizeLineMax+n {
		pooled := bufpool.Get()
		defer bufpool.Put(pooled)
		chunk = *pooled
	}
	head := len(append(strconv.AppendInt(chunk[:0], n, 10), '\n'))
	for sent := false; ; sent = true {
		m := int(min(n, int64(len(chunk)-head)))
		if _, err := s.spool.ReadAt(chunk[head:head+m], off); err != nil {
			if sent {
				return wire.Hangup(err)
			}
			return fmt.Errorf("reading the spool: %w", err)
		}
		if !sent {
			s.reads.Inc()
		}
		s.bytesOut.Add(int64(m))
		if _, err := w.Write(chunk[:head+m]); err != nil {
			return wire.Hangup(err)
		}
		if off, n, head = off+int64(m), n-int64(m), 0; n == 0 {
			return nil
		}
	}
}
