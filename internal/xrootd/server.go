package xrootd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"lobster/internal/bufpool"
	"lobster/internal/telemetry"
)

// Protocol (one text line per request; binary payloads follow):
//
//	open <lfn>                 → "<size>\n" | "-1 <error>\n"
//	read <lfn> <offset> <len>  → "<n>\n" + n bytes | "-1 <error>\n"
//	stat <lfn>                 → "<size> <crc32>\n" | "-1 <error>\n"
//	quit                       → closes the connection
//
// read returns fewer than len bytes only at end of file. stat carries
// the IEEE CRC32 of the whole content in lower-case hex: striped
// multi-replica fetches use it to check that the replicas they are
// about to stripe across hold the same bytes, and to verify the
// reassembled output. Servers predating stat answer "-1 unknown
// command", which clients treat as "no checksum available".

// DataServer serves file content by LFN over TCP for one site. What it
// stores lives in one spool file, never on the heap: the stored files lie
// end to end in it, each written once with its CRC taken in the same
// pass, and every connection answers reads with positional ReadAt on the
// one handle. The spool is unlinked as soon as it exists, so the handle
// is all there is of it and a process that dies leaves nothing on disk.
type DataServer struct {
	site  string
	lis   net.Listener
	spool *os.File

	// storing admits one StoreFrom at a time, so a file is one unbroken
	// range of the spool; end, under it, is where the next one starts.
	storing sync.Mutex
	end     int64

	mu    sync.RWMutex
	files map[string]stored
	open  map[net.Conn]struct{} // accepted conns, force-closed on Close

	wg          sync.WaitGroup
	closed      atomic.Bool
	down        atomic.Bool // fault injection: refuse all requests
	reads       atomic.Int64
	bytesOut    atomic.Int64
	storedBytes atomic.Int64
	throttle    atomic.Int64 // payload bytes/sec per connection; 0 = unthrottled
}

// stored is where one file's bytes lie in the spool, and their CRC.
type stored struct {
	off, size int64
	crc       uint32
}

// spoolWriter is what a StoreFrom fill writes through: the bytes go to
// the spool from off on, the size and CRC kept as they go by.
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
		w.crc = crc32.Update(w.crc, crc32.IEEETable, p[:m])
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
	s := &DataServer{site: site, lis: lis, spool: spool,
		files: make(map[string]stored), open: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *DataServer) Addr() string { return s.lis.Addr().String() }

// Site returns the site name.
func (s *DataServer) Site() string { return s.site }

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

// Store is StoreFrom for content already in memory, the form fixtures
// and the challenge bench use. Like httptest.NewServer it panics when the
// environment fails it (the spool cannot be written) rather than make
// every caller carry an error it cannot act on.
func (s *DataServer) Store(lfn string, content []byte) Replica {
	rep, err := s.StoreFrom(lfn, func(w io.Writer) error {
		_, err := w.Write(content)
		return err
	})
	if err != nil {
		panic(err)
	}
	return rep
}

// SetDown toggles fault injection: while down, every request errors. This
// models the transient WAN data-access outage in the paper's Figure 10.
func (s *DataServer) SetDown(down bool) { s.down.Store(down) }

// SetThrottle caps each connection's payload rate at bytesPerSec
// (0 = unthrottled). Loopback runs at memcpy speed; a throttled server
// models the data-challenge shape instead — a remote storage element
// whose uplink, not the client NIC, bounds a single stream, which is
// the regime where striping across replicas pays.
func (s *DataServer) SetThrottle(bytesPerSec int64) {
	s.throttle.Store(bytesPerSec)
}

// pace sleeps long enough after serving n payload bytes to hold the
// connection at the throttle rate.
func (s *DataServer) pace(n int64) {
	rate := s.throttle.Load()
	if rate <= 0 || n <= 0 {
		return
	}
	time.Sleep(time.Duration(n * int64(time.Second) / rate))
}

// Reads returns the number of read requests served.
func (s *DataServer) Reads() int64 { return s.reads.Load() }

// BytesOut returns the number of payload bytes served.
func (s *DataServer) BytesOut() int64 { return s.bytesOut.Load() }

// Instrument exports the server's own counters on reg, read at scrape
// time; a nil registry is a no-op. One data server per registry: the
// series carry no site label.
func (s *DataServer) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("lobster_xrootd_server_reads_total",
		"Read requests the data server answered with payload.",
		func() float64 { return float64(s.reads.Load()) })
	reg.GaugeFunc("lobster_xrootd_server_bytes_total",
		"Payload bytes the data server sent.",
		func() float64 { return float64(s.bytesOut.Load()) })
	reg.GaugeFunc("lobster_xrootd_server_open_conns",
		"Client connections open on the data server right now, parked ones included.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.open))
		})
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
	err := s.lis.Close()
	s.mu.Lock()
	for c := range s.open {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.files = nil
	s.mu.Unlock()
	s.spool.Close()
	return err
}

// trackConn registers an accepted conn for force-close on shutdown; on
// a server already closing it closes the conn instead.
func (s *DataServer) trackConn(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		conn.Close()
		return
	}
	s.open[conn] = struct{}{}
}

func (s *DataServer) untrackConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.open, conn)
	s.mu.Unlock()
}

func (s *DataServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.trackConn(conn)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			defer s.untrackConn(conn)
			s.serveConn(conn)
		}()
	}
}

// errHangup marks a dispatch failure that came after part of the reply
// had been written: a "-1" line now would land in the middle of a
// payload the client is counting, so the connection is closed instead.
var errHangup = errors.New("xrootd: reply cut short")

func hangup(err error) error { return fmt.Errorf("%w: %v", errHangup, err) }

func (s *DataServer) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 32<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	for {
		// The line is read in place, so one longer than the reader's
		// buffer (an LFN of 32 KiB) ends the connection.
		line, err := r.ReadSlice('\n')
		if err != nil {
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		if string(line) == "quit" {
			w.Flush()
			return
		}
		if err := s.dispatch(line, w); err != nil {
			if errors.Is(err, errHangup) {
				return
			}
			fmt.Fprintf(w, "-1 %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// nextField cuts the first whitespace-delimited field off b, the way
// strings.Fields delimits them, without allocating.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
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

// dispatch answers one command line into w. An error that is not an
// errHangup means nothing was written, and the caller reports it in
// protocol.
func (s *DataServer) dispatch(line []byte, w *bufio.Writer) error {
	if s.down.Load() {
		return errors.New("server unavailable")
	}
	// No command takes more than three arguments; a fifth field only has
	// to be seen to be refused.
	var buf [5][]byte
	fields := buf[:0]
	for f, rest := nextField(line); len(f) > 0 && len(fields) < len(buf); f, rest = nextField(rest) {
		fields = append(fields, f)
	}
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
	case "stat":
		if len(fields) != 2 {
			return errors.New("usage: stat <lfn>")
		}
		st, err := s.lookup(fields[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d %08x\n", st.size, st.crc)
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
		if err := s.sendRange(w, st.off+off, n); err != nil {
			return err
		}
		s.pace(n)
		return nil
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
				return hangup(err)
			}
			return fmt.Errorf("reading the spool: %w", err)
		}
		if !sent {
			s.reads.Add(1)
		}
		s.bytesOut.Add(int64(m))
		if _, err := w.Write(chunk[:head+m]); err != nil {
			return hangup(err)
		}
		if off, n, head = off+int64(m), n-int64(m), 0; n == 0 {
			return nil
		}
	}
}
