package xrootd

import (
	"io"
	"testing"

	"lobster/internal/bufpool"
)

// BenchmarkDataplaneFetch64 measures the staging-style whole-file fetch
// of a 64 MiB LFN from a single replica, streamed through FetchTo the
// way staging consumers drain it (the "before" row in
// BENCH_dataplane.json used the buffered Fetch). Enforced by
// cmd/bench-guard.
func BenchmarkDataplaneFetch64(b *testing.B) {
	const size = 64 << 20
	srv, err := NewDataServer("T3_BENCH", "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i * 13)
	}
	red := NewRedirector()
	red.Register("/store/bench.root", mustStore(srv, "/store/bench.root", content))
	cl := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "bench"}
	bufpool.Warm(2) // client and server each hold one chunk
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := cl.FetchTo("/store/bench.root", io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if n != size {
			b.Fatalf("got %d bytes", n)
		}
	}
}

// BenchmarkFetchWhole is the in-memory whole-file Fetch, what the
// end-to-end benchmark's reference computation and any staging-style
// consumer that wants the bytes in hand pay: the announced size reserves
// one destination and every read lands in it, so B/op is the payload
// and little else. BENCH_dataplane.json bounds it at 1.02 x payload +
// 64 KiB; a destination that regrows as it fills reads about 3.5 x.
func BenchmarkFetchWhole(b *testing.B) {
	b.Run("16MiB", func(b *testing.B) {
		const size = 16 << 20
		srv, err := NewDataServer("T3_BENCH", "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		red := NewRedirector()
		red.Register("/store/whole.root", mustStore(srv, "/store/whole.root", make([]byte, size)))
		cl := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "bench"}
		defer cl.Close()
		bufpool.Warm(1) // the server's chunk for replies past its write buffer
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data, err := cl.Fetch("/store/whole.root")
			if err != nil || len(data) != size {
				b.Fatalf("Fetch = %d bytes, %v", len(data), err)
			}
		}
	})
}

// BenchmarkDataServerReadHot is one positional read on an open file,
// client and server in this process: the command built in the writer's
// buffer, parsed in the reader's, the payload read from the spool into
// the reply and off the wire into the caller's slice. Nothing on either
// end allocates; BENCH_dataplane.json pins that at 0 allocs/op.
func BenchmarkDataServerReadHot(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int
	}{{"1KiB", 1 << 10}, {"256KiB", 256 << 10}} {
		b.Run(tc.name, func(b *testing.B) {
			srv, err := NewDataServer("T3_BENCH", "127.0.0.1:0", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			const fileSize = 4 << 20
			red := NewRedirector()
			red.Register("/store/hot.root", mustStore(srv, "/store/hot.root", make([]byte, fileSize)))
			cl := &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "bench"}
			defer cl.Close()
			f, err := cl.Open("/store/hot.root")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			bufpool.Warm(1) // the server's chunk for replies past its write buffer
			p := make([]byte, tc.size)
			b.SetBytes(int64(tc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(i*tc.size) % fileSize
				if n, err := f.ReadAt(p, off); err != nil || n != tc.size {
					b.Fatalf("ReadAt(%d) = %d, %v", off, n, err)
				}
			}
		})
	}
}
