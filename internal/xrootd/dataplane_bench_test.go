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
	srv, err := NewDataServer("T3_BENCH", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i * 13)
	}
	red := NewRedirector()
	red.Register("/store/bench.root", srv.Store("/store/bench.root", content))
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
