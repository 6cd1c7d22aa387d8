package chirp

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lobster/internal/bufpool"
	"lobster/internal/trace"
)

// Data-plane benchmarks: the transfer paths the wq worker, merge
// executor, and hepsim stage-out actually pay. The bodies exercise the
// streaming plane (pooled connections, GetFileTo/PutFileFrom) the
// production consumers now use; the "before" rows in
// BENCH_dataplane.json were recorded with the buffered
// dial-per-operation equivalents. Enforced by cmd/bench-guard.

func benchServer(b *testing.B) (*Server, *LocalFS) {
	b.Helper()
	fs, err := NewLocalFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(fs, "127.0.0.1:0", 16, nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv, fs
}

func benchPayload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

// benchFile writes an n-byte payload to a local file and returns its path.
func benchFile(b *testing.B, dir, name string, n int) string {
	b.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, benchPayload(n), 0o644); err != nil {
		b.Fatal(err)
	}
	return p
}

var benchSizes = []struct {
	name string
	n    int
}{
	{"1MiB", 1 << 20},
	{"16MiB", 16 << 20},
	{"64MiB", 64 << 20},
	{"256MiB", 256 << 20},
}

// BenchmarkDataplaneGet measures a single-file chirp get into a sandbox
// file, the stage-in grain of merge tasks and pile-up delivery.
func BenchmarkDataplaneGet(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			srv, fs := benchServer(b)
			if err := fs.WriteFile("/in.root", benchPayload(sz.n)); err != nil {
				b.Fatal(err)
			}
			pool := NewPool(PoolOptions{Addr: srv.Addr()})
			defer pool.Close()
			dst := filepath.Join(b.TempDir(), "in.root")
			bufpool.Warm(2) // client and server each hold one chunk
			b.SetBytes(int64(sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := pool.FetchToTraced(nil, trace.Context{}, "/in.root", dst)
				if err != nil {
					b.Fatal(err)
				}
				if n != int64(sz.n) {
					b.Fatalf("got %d bytes", n)
				}
			}
		})
	}
}

// BenchmarkGetFileWhole is the in-memory GetFile, what a pile-up sample
// and the end-to-end benchmark's read-back pay: the size line reserves
// one destination and the payload is read into it, so B/op is the
// payload and little else. BENCH_dataplane.json bounds it at 1.02 x
// payload + 64 KiB.
func BenchmarkGetFileWhole(b *testing.B) {
	b.Run("16MiB", func(b *testing.B) {
		const size = 16 << 20
		srv, fs := benchServer(b)
		if err := fs.WriteFile("/whole.root", benchPayload(size)); err != nil {
			b.Fatal(err)
		}
		pool := NewPool(PoolOptions{Addr: srv.Addr()})
		defer pool.Close()
		bufpool.Warm(1) // the server's chunk, should its sendfile be refused
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data, err := poolGet(pool, "/whole.root")
			if err != nil || len(data) != size {
				b.Fatalf("GetFile = %d bytes, %v", len(data), err)
			}
		}
	})
}

// BenchmarkDataplanePut measures a single-file chirp put from a sandbox
// file, the stage-out grain of every task.
func BenchmarkDataplanePut(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			srv, _ := benchServer(b)
			src := benchFile(b, b.TempDir(), "out.root", sz.n)
			pool := NewPool(PoolOptions{Addr: srv.Addr()})
			defer pool.Close()
			bufpool.Warm(2) // client and server each hold one chunk
			b.SetBytes(int64(sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := putFrom(pool, "/out.root", src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDataplaneRoundTrip64 is the put+get round trip of a 64 MiB
// output file — the acceptance-criteria headline.
func BenchmarkDataplaneRoundTrip64(b *testing.B) {
	srv, _ := benchServer(b)
	dir := b.TempDir()
	src := benchFile(b, dir, "out.root", 64<<20)
	dst := filepath.Join(dir, "back.root")
	pool := NewPool(PoolOptions{Addr: srv.Addr()})
	defer pool.Close()
	bufpool.Warm(2)
	b.SetBytes(2 * 64 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := putFrom(pool, "/rt.root", src); err != nil {
			b.Fatal(err)
		}
		n, err := pool.FetchToTraced(nil, trace.Context{}, "/rt.root", dst)
		if err != nil {
			b.Fatal(err)
		}
		if n != 64<<20 {
			b.Fatalf("got %d bytes", n)
		}
	}
}

// BenchmarkDataplaneStageIn8 stages eight 8 MiB inputs into a sandbox
// directory in parallel over the pool, the fan-in of the merge executor.
func BenchmarkDataplaneStageIn8(b *testing.B) {
	const files, size = 8, 8 << 20
	srv, fs := benchServer(b)
	for i := 0; i < files; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/in%d.root", i), benchPayload(size)); err != nil {
			b.Fatal(err)
		}
	}
	sandbox := b.TempDir()
	pool := NewPool(PoolOptions{Addr: srv.Addr(), Size: 4})
	defer pool.Close()
	bufpool.Warm(2 * 4) // four pooled connections, both ends
	b.SetBytes(files * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, files)
		for j := 0; j < files; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				dst := filepath.Join(sandbox, fmt.Sprintf("in%d.root", j))
				_, errs[j] = pool.FetchToTraced(nil, trace.Context{}, fmt.Sprintf("/in%d.root", j), dst)
			}(j)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDataplanePutHot is one stage-out put of bytes already in
// memory on a warm pooled connection, client and LocalFS server in this
// process: what a finished task's output costs to send home. B/op is the
// guarded number — neither end may allocate a transfer buffer. 8B is a
// small-tasks output, where the put is all per-request cost.
func BenchmarkDataplanePutHot(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"8B", 8}, {"32KiB", 32 << 10}, {"1MiB", 1 << 20}} {
		b.Run(sz.name, func(b *testing.B) {
			srv, _ := benchServer(b)
			pool := NewPool(PoolOptions{Addr: srv.Addr(), Size: 1})
			defer pool.Close()
			data := benchPayload(sz.n)
			put := func() {
				if err := pool.PutFile("/store/user/bench/out.root", data); err != nil {
					b.Fatal(err)
				}
			}
			bufpool.Warm(2)
			put() // dial, first spool, parent directories
			b.SetBytes(int64(sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put()
			}
		})
	}
}

// BenchmarkDataplaneGetToFileHot is the matching fetch: GetFileTo into an
// open local file on a warm connection, the merge task's input grain.
func BenchmarkDataplaneGetToFileHot(b *testing.B) {
	const n = 1 << 20
	srv, fs := benchServer(b)
	if err := fs.WriteFile("/in.root", benchPayload(n)); err != nil {
		b.Fatal(err)
	}
	c, err := Dial(srv.Addr(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	f, err := os.Create(filepath.Join(b.TempDir(), "in.root"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	get := func() {
		if _, err := f.Seek(0, 0); err != nil {
			b.Fatal(err)
		}
		if got, err := c.GetFileTo("/in.root", f); err != nil || got != n {
			b.Fatalf("got %d bytes: %v", got, err)
		}
	}
	bufpool.Warm(2)
	get()
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}
