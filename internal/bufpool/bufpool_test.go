package bufpool

import (
	"bytes"
	"errors"
	"io"
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
