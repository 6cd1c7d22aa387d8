package xrootd

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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

// DataServer serves file content by LFN over TCP for one site.
type DataServer struct {
	site string
	lis  net.Listener

	mu    sync.RWMutex
	files map[string][]byte
	crcs  map[string]uint32
	down  bool                  // fault injection: refuse all requests
	open  map[net.Conn]struct{} // accepted conns, force-closed on Close

	wg       sync.WaitGroup
	closed   atomic.Bool
	reads    atomic.Int64
	bytesOut atomic.Int64
	throttle atomic.Int64 // payload bytes/sec per connection; 0 = unthrottled
}

// NewDataServer starts a data server for site on addr ("127.0.0.1:0").
func NewDataServer(site, addr string) (*DataServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("xrootd: listening: %w", err)
	}
	s := &DataServer{site: site, lis: lis,
		files: make(map[string][]byte), crcs: make(map[string]uint32),
		open: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *DataServer) Addr() string { return s.lis.Addr().String() }

// Site returns the site name.
func (s *DataServer) Site() string { return s.site }

// Store installs content for lfn and returns the replica descriptor to
// register with a redirector.
func (s *DataServer) Store(lfn string, content []byte) Replica {
	s.mu.Lock()
	s.files[lfn] = append([]byte(nil), content...)
	s.crcs[lfn] = crc32.ChecksumIEEE(content)
	s.mu.Unlock()
	return Replica{Site: s.site, Addr: s.Addr()}
}

// SetDown toggles fault injection: while down, every request errors. This
// models the transient WAN data-access outage in the paper's Figure 10.
func (s *DataServer) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

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
func (s *DataServer) pace(n int) {
	rate := s.throttle.Load()
	if rate <= 0 || n <= 0 {
		return
	}
	time.Sleep(time.Duration(int64(n) * int64(time.Second) / rate))
}

// Reads returns the number of read requests served.
func (s *DataServer) Reads() int64 { return s.reads.Load() }

// BytesOut returns the number of payload bytes served.
func (s *DataServer) BytesOut() int64 { return s.bytesOut.Load() }

// Close stops accepting, hangs up every open connection and waits for
// their handlers: clients park connections between files, and an idle
// one must not be able to stall shutdown.
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
	return err
}

// trackConn registers an accepted conn for force-close on shutdown; on
// a server already closing it closes the conn instead.
func (s *DataServer) trackConn(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		conn.Close()
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

func (s *DataServer) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 32<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "quit" {
			w.Flush()
			return
		}
		if err := s.dispatch(line, w); err != nil {
			fmt.Fprintf(w, "-1 %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *DataServer) dispatch(line string, w *bufio.Writer) error {
	s.mu.RLock()
	down := s.down
	s.mu.RUnlock()
	if down {
		return errors.New("server unavailable")
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return errors.New("empty command")
	}
	switch fields[0] {
	case "open":
		if len(fields) != 2 {
			return errors.New("usage: open <lfn>")
		}
		s.mu.RLock()
		content, ok := s.files[fields[1]]
		s.mu.RUnlock()
		if !ok {
			return fmt.Errorf("no such file %s", fields[1])
		}
		fmt.Fprintf(w, "%d\n", len(content))
		return nil
	case "stat":
		if len(fields) != 2 {
			return errors.New("usage: stat <lfn>")
		}
		s.mu.RLock()
		content, ok := s.files[fields[1]]
		crc := s.crcs[fields[1]]
		s.mu.RUnlock()
		if !ok {
			return fmt.Errorf("no such file %s", fields[1])
		}
		fmt.Fprintf(w, "%d %08x\n", len(content), crc)
		return nil
	case "read":
		if len(fields) != 4 {
			return errors.New("usage: read <lfn> <offset> <len>")
		}
		off, err1 := strconv.ParseInt(fields[2], 10, 64)
		n, err2 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil || off < 0 || n < 0 {
			return errors.New("bad offset or length")
		}
		s.mu.RLock()
		content, ok := s.files[fields[1]]
		s.mu.RUnlock()
		if !ok {
			return fmt.Errorf("no such file %s", fields[1])
		}
		if off > int64(len(content)) {
			off = int64(len(content))
		}
		end := off + n
		if end < off || end > int64(len(content)) {
			// end < off means off+n overflowed int64; either way the
			// request reaches past EOF and is truncated there.
			end = int64(len(content))
		}
		chunk := content[off:end]
		fmt.Fprintf(w, "%d\n", len(chunk))
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		s.reads.Add(1)
		s.bytesOut.Add(int64(len(chunk)))
		s.pace(len(chunk))
		return nil
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}
