// Package bufpool provides the shared chunk-buffer pool behind the
// streaming data plane. Every byte-moving path in the repo — chirp
// get/put, xrootd fetches, squid miss streaming, HDFS block shuttling —
// copies through these pooled chunks instead of allocating a
// payload-sized buffer per transfer, so a 10k-core stage-out wave costs
// a bounded, reusable working set instead of gigabytes of garbage.
//
// The chunk size (1 MiB) is chosen for the transfer paths this repo
// cares about: large enough that syscall and bufio overhead amortises
// to noise on multi-MiB physics files, small enough that a pool shared
// by a few dozen concurrent transfers stays tens of MiB.
package bufpool

import (
	"io"
	"math/bits"
	"runtime"
	"sync"
)

// ChunkSize is the size of every pooled buffer.
const ChunkSize = 1 << 20

var pool = sync.Pool{
	New: func() any {
		b := make([]byte, ChunkSize)
		return &b
	},
}

// Get borrows a chunk. The contents are arbitrary; the caller must not
// assume zeroing. Return it with Put.
func Get() *[]byte {
	return pool.Get().(*[]byte)
}

// Put returns a chunk to the pool. Only buffers obtained from Get may
// be returned; foreign or resized buffers are dropped.
func Put(b *[]byte) {
	if b == nil || len(*b) != ChunkSize {
		return
	}
	pool.Put(b)
}

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
// stream chunk of 64 events, a staged byte range: one sync.Pool per
// power-of-two capacity from 4 KiB to 64 MiB, indexed by its log2, so a
// slot's second task borrows what its first gave back and the collector
// can still reclaim an idle class.
const minSizedShift, maxSizedShift = 12, 26

var sized [maxSizedShift + 1]sync.Pool

// sizedShift is log2 of the smallest class capacity holding n bytes.
func sizedShift(n int) int {
	return max(bits.Len(uint(max(n, 1)-1)), minSizedShift)
}

// GetSized borrows a buffer of length n (contents arbitrary) with its
// class's capacity. Return it with PutSized once nothing can read it any
// more. Beyond the largest class it is a plain allocation.
func GetSized(n int) *[]byte {
	s := sizedShift(n)
	if s > maxSizedShift {
		b := make([]byte, n)
		return &b
	}
	if b, ok := sized[s].Get().(*[]byte); ok {
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n, 1<<s)
	return &b
}

// PutSized returns a GetSized buffer to its class; nil and buffers whose
// capacity is not exactly a class's are dropped.
func PutSized(b *[]byte) {
	if b == nil {
		return
	}
	if s := sizedShift(cap(*b)); s <= maxSizedShift && cap(*b) == 1<<s {
		sized[s].Put(b)
	}
}

// Copy is io.Copy through a pooled chunk. When dst implements
// io.ReaderFrom or src implements io.WriterTo the stdlib fast paths
// (including sendfile/splice kernel offload between files and sockets)
// still apply — the pooled buffer is only touched on the fallback path.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	buf := Get()
	defer Put(buf)
	return io.CopyBuffer(dst, src, *buf)
}

// CopyN copies exactly n bytes from src to dst through a pooled chunk,
// with io.CopyN semantics: it returns io.EOF if src drains early. Like
// Copy, kernel offload applies when the endpoints support it (the
// stdlib unwraps the internal LimitedReader for sendfile and splice).
func CopyN(dst io.Writer, src io.Reader, n int64) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	buf := Get()
	defer Put(buf)
	written, err := io.CopyBuffer(dst, io.LimitReader(src, n), *buf)
	if written == n {
		return n, nil
	}
	if err == nil {
		// src stopped early without error: match io.CopyN.
		err = io.EOF
	}
	return written, err
}
