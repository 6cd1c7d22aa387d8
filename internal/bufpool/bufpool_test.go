package bufpool

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	b := Get()
	if len(*b) != ChunkSize {
		t.Fatalf("chunk size = %d, want %d", len(*b), ChunkSize)
	}
	Put(b)
	// Foreign sizes must be dropped, not poison the pool.
	odd := make([]byte, 17)
	Put(&odd)
	Put(nil)
	if got := Get(); len(*got) != ChunkSize {
		t.Fatalf("pool returned %d-byte chunk", len(*got))
	}
}

// TestWarm holds the property the B/op pins lean on: after Warm(n), n
// chunks held at once come out of the pool, not out of the allocator.
func TestWarm(t *testing.T) {
	if poolDropsPuts {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const n = 4
	Warm(n)
	var before, after runtime.MemStats
	held := make([]*[]byte, n)
	runtime.ReadMemStats(&before)
	for i := range held {
		held[i] = Get()
	}
	runtime.ReadMemStats(&after)
	for _, b := range held {
		Put(b)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= ChunkSize {
		t.Errorf("%d Gets after Warm(%d) allocated %d bytes, want no fresh chunk", n, n, got)
	}
}

// TestReserveSurvivesGC holds what the reserve is for: a chunk given
// back is still there after the two collections that empty a sync.Pool.
func TestReserveSurvivesGC(t *testing.T) {
	for _, n := range []int{64 << 10, ChunkSize, 4 << 20} {
		b := GetSized(n)
		PutSized(b)
		runtime.GC()
		runtime.GC()
		if got := allocatedBy(func() { PutSized(GetSized(n)) }); got >= uint64(n) {
			t.Errorf("GetSized(%d) after two GCs allocated %d bytes, want the reserved buffer", n, got)
		}
	}
}

// allocatedBy is what f (and anything running beside it) allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readFromRecorder is a destination that notes whether Copy handed it
// the source (the kernel-offload route) or wrote to it chunk by chunk.
type readFromRecorder struct {
	bytes.Buffer
	got io.Reader
}

func (r *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.got = src
	return r.Buffer.ReadFrom(src)
}

// tcpPair is a connected loopback pair: real *net.TCPConn on both ends.
func tcpPair(t *testing.T) (client, server *net.TCPConn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

// TestCopyNeverAllocatesAChunk pins both halves of Copy's up-front
// decision. A source the kernel cannot read from goes through the pooled
// chunk, so the stdlib's ReadFrom fallback (a fresh 32 KiB per call on
// *os.File and *net.TCPConn destinations) never runs; a file or socket
// source is still handed to the destination's ReadFrom, and that route
// allocates nothing either — which a refused splice or sendfile would.
func TestCopyNeverAllocatesAChunk(t *testing.T) {
	if poolDropsPuts {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const size, runs, limit = 256 << 10, 20, 1 << 10
	payload := bytes.Repeat([]byte("lobster!"), size/8)
	f, err := os.Create(filepath.Join(t.TempDir(), "sink"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	near, far := tcpPair(t)
	// The far end drains whatever arrives and, when asked, sends one
	// payload; it never allocates after this point.
	send := make(chan struct{})
	go func() {
		for range send {
			far.Write(payload)
		}
	}()
	defer close(send)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := far.Read(buf); err != nil {
				return
			}
		}
	}()
	mem := bytes.NewReader(nil)
	br := bufio.NewReader(mem)
	bw := bufio.NewWriterSize(near, 64<<10)
	wrapped := struct{ net.Conn }{near} // what a fault-plane connection looks like

	cases := []struct {
		name string
		copy func() (int64, error)
	}{
		{"file<-bufio.Reader", func() (int64, error) {
			mem.Reset(payload)
			br.Reset(mem)
			f.Seek(0, io.SeekStart)
			return CopyN(f, br, size)
		}},
		{"bufio.Writer(TCPConn)<-bytes.Reader", func() (int64, error) {
			mem.Reset(payload)
			bw.WriteString("putfile /x 262144\n") // the header is in the buffer first
			n, err := CopyN(bw, mem, size)
			bw.Flush()
			return n, err
		}},
		{"file<-wrapped conn", func() (int64, error) {
			send <- struct{}{}
			f.Seek(0, io.SeekStart)
			return CopyN(f, wrapped, size)
		}},
		{"file<-TCPConn (splice)", func() (int64, error) {
			send <- struct{}{}
			f.Seek(0, io.SeekStart)
			return CopyN(f, near, size)
		}},
		{"TCPConn<-file (sendfile)", func() (int64, error) {
			f.Seek(0, io.SeekStart)
			return CopyN(near, f, size)
		}},
	}
	Warm(1)
	for _, c := range cases {
		if n, err := c.copy(); n != size || err != nil { // also warms whatever the route needs
			t.Fatalf("%s: copied %d of %d bytes: %v", c.name, n, size, err)
		}
		got := allocatedBy(func() {
			for i := 0; i < runs; i++ {
				c.copy()
			}
		}) / runs
		if got >= limit {
			t.Errorf("%s: %d bytes allocated per copy, want < %d", c.name, got, limit)
		}
	}

	// And the decision itself: the destination's ReadFrom sees a kernel
	// source, bare or limited, and never sees any other.
	var rec readFromRecorder
	f.Seek(0, io.SeekStart)
	if _, err := Copy(&rec, &io.LimitedReader{R: f, N: 16}); err != nil || rec.got == nil {
		t.Errorf("a limited *os.File was not handed to the destination's ReadFrom (err %v)", err)
	}
	rec = readFromRecorder{}
	mem.Reset(payload)
	if n, err := Copy(&rec, mem); err != nil || n != size || rec.got != nil {
		t.Errorf("a bytes.Reader reached the destination's ReadFrom (n %d, err %v)", n, err)
	}
}

func TestCopy(t *testing.T) {
	src := strings.Repeat("lobster", 300000) // ~2 MiB, spans chunks
	var dst bytes.Buffer
	n, err := Copy(&dst, onlyReader{strings.NewReader(src)})
	if err != nil || n != int64(len(src)) {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if dst.String() != src {
		t.Fatal("payload mismatch")
	}
}

func TestCopyN(t *testing.T) {
	src := strings.Repeat("x", 3*ChunkSize)
	var dst bytes.Buffer
	n, err := CopyN(&dst, onlyReader{strings.NewReader(src)}, int64(len(src)))
	if err != nil || n != int64(len(src)) {
		t.Fatalf("CopyN = %d, %v", n, err)
	}
	if dst.Len() != len(src) {
		t.Fatalf("wrote %d bytes", dst.Len())
	}
	// Exact-length semantics: a short source surfaces io.EOF.
	dst.Reset()
	n, err = CopyN(&dst, strings.NewReader("abc"), 10)
	if n != 3 || !errors.Is(err, io.EOF) {
		t.Fatalf("short CopyN = %d, %v; want 3, io.EOF", n, err)
	}
	// Zero and negative lengths are no-ops.
	if n, err := CopyN(&dst, strings.NewReader("abc"), 0); n != 0 || err != nil {
		t.Fatalf("CopyN(0) = %d, %v", n, err)
	}
}

// onlyReader hides WriterTo so the pooled-buffer fallback path runs.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func BenchmarkCopyPooled(b *testing.B) {
	src := bytes.Repeat([]byte("a"), 8<<20)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Copy(io.Discard, onlyReader{bytes.NewReader(src)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSizedClasses(t *testing.T) {
	for _, c := range []struct{ n, wantCap int }{
		{0, 4 << 10}, {1, 4 << 10}, {4 << 10, 4 << 10}, {4<<10 + 1, 8 << 10},
		{256 << 10, 256 << 10}, {5_120_000, 8 << 20}, {64 << 20, 64 << 20},
	} {
		b := GetSized(c.n)
		if len(*b) != c.n || cap(*b) != c.wantCap {
			t.Errorf("GetSized(%d): len %d cap %d, want len %d cap %d", c.n, len(*b), cap(*b), c.n, c.wantCap)
		}
		PutSized(b)
	}
	// Beyond the largest class: a plain allocation, dropped on return.
	big := GetSized(64<<20 + 1)
	if len(*big) != 64<<20+1 {
		t.Fatalf("oversized GetSized returned %d bytes", len(*big))
	}
	PutSized(big)
	// Foreign capacities must be dropped, not poison a class.
	odd := make([]byte, 5000)
	PutSized(&odd)
	PutSized(nil)
	if got := GetSized(5000); cap(*got) != 8<<10 {
		t.Fatalf("class served a %d-byte-capacity buffer", cap(*got))
	}
}

// TestSizedReuse holds what the per-task guards lean on: a buffer given
// back is the one the next request of its class borrows, at any length
// the class holds.
func TestSizedReuse(t *testing.T) {
	if poolDropsPuts {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const n = 3 << 20
	// One buffer per P beyond the one borrowed, as Warm does: a buffer
	// in another P's private slot is invisible, and ReadMemStats stops
	// the world, after which this goroutine may run on any P.
	held := make([]*[]byte, 1+runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = GetSized(n)
	}
	for _, b := range held {
		PutSized(b)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := GetSized(n)
	PutSized(b)
	b = GetSized(n - 12345)
	runtime.ReadMemStats(&after)
	PutSized(b)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n {
		t.Errorf("two borrows from a filled class allocated %d bytes, want no fresh buffer", got)
	}
}
