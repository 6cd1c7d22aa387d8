package xrootd

import (
	"fmt"
	"io"
	"testing"
)

// Data-challenge benchmarks (BENCH_challenge.json rules): the same
// 256 MiB file fetched through the single-replica streaming path and
// through the striped 4-replica path, with every replica's uplink
// throttled to challengeLinkBps. Raw loopback runs at memcpy speed —
// a regime where one connection already saturates the client and
// striping can only add overhead — so the harness models the
// data-challenge shape instead: remote storage elements whose site
// uplinks, not the client NIC, bound a single stream. That is the
// regime the paper's WAN reads live in, and where striping across
// replicas multiplies throughput by the stream count.

const (
	challengeSize    = 256 << 20
	challengeLinkBps = 512 << 20 // per-connection replica uplink: 512 MiB/s
)

func challengeCluster(b *testing.B, replicas int) *Client {
	b.Helper()
	content := make([]byte, challengeSize)
	for i := range content {
		content[i] = byte(i * 31)
	}
	red := NewRedirector()
	for i := 0; i < replicas; i++ {
		srv, err := NewDataServer(fmt.Sprintf("T2_CH_%d", i), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		srv.SetThrottle(challengeLinkBps)
		red.Register("/store/challenge.root", srv.Store("/store/challenge.root", content))
	}
	return &Client{Redirector: red, Dashboard: NewDashboard(), Consumer: "challenge"}
}

// BenchmarkChallengeFetchSingle is the baseline: one replica, one
// connection, the PR-5 streaming FetchTo, capped by the link.
func BenchmarkChallengeFetchSingle(b *testing.B) {
	cl := challengeCluster(b, 1)
	b.SetBytes(challengeSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := cl.FetchTo("/store/challenge.root", io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if n != challengeSize {
			b.Fatalf("got %d bytes", n)
		}
	}
}

// BenchmarkChallengeFetchStriped4 stripes the same file across four
// replicas with the default 8 MiB stripes and four streams, draining
// four throttled links at once (CRC verification on — it is the
// production path).
func BenchmarkChallengeFetchStriped4(b *testing.B) {
	cl := challengeCluster(b, 4)
	b.SetBytes(challengeSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := cl.FetchToStriped("/store/challenge.root", io.Discard, StripeConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if n != challengeSize {
			b.Fatalf("got %d bytes", n)
		}
	}
}
