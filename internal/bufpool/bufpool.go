// Package bufpool provides the shared buffer pool behind the streaming
// data plane. Every byte-moving path in the repo — chirp get/put, xrootd
// fetches, squid miss streaming, HDFS block shuttling — copies through
// these pooled buffers instead of allocating a payload-sized buffer per
// transfer, so a 10k-core stage-out wave costs a bounded, reusable
// working set instead of gigabytes of garbage.
//
// One pool per power-of-two capacity from 4 KiB to 64 MiB, indexed by its
// log2. The transfer chunk (Get/Put, Copy/CopyN) is the 1 MiB class:
// large enough that syscall and bufio overhead amortises to noise on
// multi-MiB physics files, small enough that a pool shared by a few dozen
// concurrent transfers stays tens of MiB.
package bufpool

import (
	"io"
	"math/bits"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
)

// ChunkSize is the size of the transfer chunk Get returns.
const ChunkSize = 1 << 20

// Get borrows a transfer chunk: GetSized(ChunkSize).
func Get() *[]byte { return GetSized(ChunkSize) }

// Put returns a chunk; it is PutSized under the name Get's callers expect.
func Put(b *[]byte) { PutSized(b) }

// Warm fills the pool so that n concurrent Gets on any Ps are hits. It
// allocates one chunk more per P than n because a chunk parked in one
// P's private slot is invisible to the others. The benchmarks that pin
// B/op call it before the timer starts: without it a five-iteration run
// charges zero, one or two pool refills depending on where the
// goroutines landed, and B/op moves in steps of ChunkSize/5.
func Warm(n int) {
	held := make([]*[]byte, n+runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = Get()
	}
	for _, b := range held {
		Put(b)
	}
}

// Sized buffers serve working sets whose size the task decides — a
// stream chunk of 64 events, a staged byte range — so a slot's second
// task borrows what its first gave back and the collector can still
// reclaim an idle class.
const minSizedShift, maxSizedShift = 12, 26

// MaxSized is the largest class's capacity, and the most memory taken on
// a peer's word: GetSized's one buffer, an Arrival's one allocation.
const MaxSized = 1 << maxSizedShift

var sized [maxSizedShift + 1]sync.Pool

// The classes from 64 KiB to 4 MiB also keep a reserve the collector
// cannot drop: sync.Pool loses everything it holds every second GC, and
// for these classes one refill is a payload-sized allocation per
// transfer. The bound is a constant, not a knob — at most reserveBytes
// or reserveDepth buffers per class, 31.5 MiB over all seven once every
// class has been in use at that depth — because what it has to cover is
// the handful of transfers one process has in flight, not a workload.
const (
	minReserveShift, maxReserveShift = 16, 22
	reserveBytes, reserveDepth       = 8 << 20, 8
)

var reserve [maxSizedShift + 1]chan *[]byte

func init() {
	for s := minReserveShift; s <= maxReserveShift; s++ {
		reserve[s] = make(chan *[]byte, min(reserveDepth, reserveBytes>>s))
	}
}

// sizedShift is log2 of the smallest class capacity holding n bytes.
func sizedShift(n int) int {
	return max(bits.Len(uint(max(n, 1)-1)), minSizedShift)
}

// GetSized borrows a buffer of length n (contents arbitrary) with its
// class's capacity. Return it with PutSized once nothing can read it any
// more. Beyond MaxSized it is a plain allocation (Arrival, for a peer's).
func GetSized(n int) *[]byte {
	s := sizedShift(n)
	if s > maxSizedShift {
		b := make([]byte, n)
		return &b
	}
	var b *[]byte
	select {
	case b = <-reserve[s]: // nil outside the reserved classes: never ready
	default:
		b, _ = sized[s].Get().(*[]byte)
	}
	if b == nil {
		fresh := make([]byte, n, 1<<s)
		return &fresh
	}
	*b = (*b)[:n]
	return b
}

// PutSized returns a GetSized buffer to its class; nil and buffers whose
// capacity is not exactly a class's are dropped.
func PutSized(b *[]byte) {
	if b == nil {
		return
	}
	s := sizedShift(cap(*b))
	if s > maxSizedShift || cap(*b) != 1<<s {
		return
	}
	select {
	case reserve[s] <- b:
	default:
		sized[s].Put(b)
	}
}

// kernelSource reports whether the kernel can move src's bytes without a
// user-space buffer: a file or a stream socket, bare or inside the
// LimitedReader the stdlib's splice and sendfile paths unwrap.
func kernelSource(src io.Reader) bool {
	if lr, ok := src.(*io.LimitedReader); ok {
		src = lr.R
	}
	switch src.(type) {
	case *os.File, *net.TCPConn, *net.UnixConn:
		return true
	}
	return false
}

// Copy copies src to dst until EOF and never lets the stdlib pick the
// buffer. The decision is made up front: a kernelSource goes to dst's
// ReadFrom (splice, sendfile, copy_file_range; a bufio.Writer forwards
// it once its own buffer has drained); anything else is read and written
// through one pooled chunk with dst's ReaderFrom and src's WriterTo left
// uncalled. io.CopyBuffer cannot promise that: it hands the pair to
// (*os.File).ReadFrom or (*net.TCPConn).ReadFrom whatever the source, and
// their generic fallback ignores the buffer it was given and allocates
// 32 KiB per call. What is left of that is a kernel path refused at run
// time (an O_APPEND destination), where the stdlib still falls back.
func Copy(dst io.Writer, src io.Reader) (n int64, err error) {
	if rf, ok := dst.(io.ReaderFrom); ok && kernelSource(src) {
		return rf.ReadFrom(src)
	}
	buf := Get()
	defer Put(buf)
	for {
		nr, rerr := src.Read(*buf)
		if nr > 0 {
			nw, werr := dst.Write((*buf)[:nr])
			n += int64(nw)
			if werr == nil && nw < nr {
				werr = io.ErrShortWrite
			}
			if werr != nil {
				return n, werr
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				rerr = nil
			}
			return n, rerr
		}
	}
}

// CopyN copies exactly n bytes from src to dst the way Copy does, with
// io.CopyN semantics: it returns io.EOF if src drains early.
func CopyN(dst io.Writer, src io.Reader, n int64) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	written, err := Copy(dst, &io.LimitedReader{R: src, N: n})
	if written == n {
		return n, nil
	}
	if err == nil {
		// src stopped early without error: match io.CopyN.
		err = io.EOF
	}
	return written, err
}

// Arrival is where a whole object lands in memory when a peer said how
// large it is: a reply's size line, a length in recorded metadata. That
// is a reservation, not a commitment. Nothing is allocated until the
// first bytes are about to land; then an object announced at no more than
// MaxSized takes one allocation of exactly that size (a page nothing
// arrives in is never resident), and a larger, unannounced or
// over-running one grows as append does, by what has arrived: a lie costs
// its teller's bytes and no more. ReadFrom fills the tail straight from
// its source, so a byte is copied once and never again to make room. The
// bytes are the caller's; nothing here is pooled.
type Arrival struct {
	// Announced is the size the peer gave, negative if it gave none. A
	// resumed transfer sets it again from what its new source answers.
	Announced int64
	buf       []byte
}

// Bytes is what has arrived: nil until something has.
func (a *Arrival) Bytes() []byte { return a.buf }

// tail makes room behind what has arrived and returns up to n bytes of it.
func (a *Arrival) tail(n int) []byte {
	if len(a.buf) == cap(a.buf) {
		if a.buf == nil && 0 < a.Announced && a.Announced <= MaxSized {
			a.buf = make([]byte, 0, a.Announced)
		} else {
			a.buf = slices.Grow(a.buf, n)
		}
	}
	return a.buf[len(a.buf):min(len(a.buf)+n, cap(a.buf))]
}

// Write lands p, for a source that hands over slices it already holds.
func (a *Arrival) Write(p []byte) (int, error) {
	if len(p) > 0 {
		a.tail(len(p)) // the first arrival takes the reservation
		a.buf = append(a.buf, p...)
	}
	return len(p), nil
}

// ReadFrom lands what r delivers, at most a chunk a Read, until the
// announced size is in or r ends (io.EOF is no error, as in
// io.ReaderFrom; the caller compares the count with what it expected). It
// asks r for nothing more, so a connection keeps what follows a payload.
func (a *Arrival) ReadFrom(r io.Reader) (n int64, err error) {
	for err == nil {
		want := int64(ChunkSize)
		if a.Announced >= 0 {
			want = min(want, a.Announced-int64(len(a.buf)))
		}
		if want <= 0 {
			break
		}
		var m int
		m, err = r.Read(a.tail(int(want)))
		a.buf = a.buf[:len(a.buf)+m]
		n += int64(m)
	}
	if err == io.EOF {
		err = nil
	}
	return n, err
}
