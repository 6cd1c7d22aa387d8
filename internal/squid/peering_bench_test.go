package squid

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// originRTT models the WAN round trip to the repository: every origin
// request pays it, which is exactly what sibling peering avoids.
const originRTT = 2 * time.Millisecond

// benchFrontend builds a proxy whose local cache is disabled (capacity
// below the object size), so every benchmark iteration exercises the
// full miss path instead of degrading into a local hit.
func benchFrontend(b *testing.B, origin string, peers ...string) *httptest.Server {
	b.Helper()
	p, err := New(origin, Config{CapacityBytes: 1, Peers: peers})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(p)
	b.Cleanup(srv.Close)
	return srv
}

func benchGet(b *testing.B, url string) {
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %s", resp.Status)
	}
}

// BenchmarkOriginMiss is the baseline: a proxy with no peers pays the
// origin round trip on every miss. A BENCH_challenge.json ratio rule holds
// BenchmarkPeerHit below half of this number.
func BenchmarkOriginMiss(b *testing.B) {
	body := make([]byte, 64<<10)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(originRTT)
		w.Write(body)
	}))
	b.Cleanup(origin.Close)
	front := benchFrontend(b, origin.URL)
	benchGet(b, front.URL+"/obj/warmup")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, front.URL+"/obj/k")
	}
}

// BenchmarkPeerHit serves the same miss from a warm sibling cache on
// loopback: the WAN round trip disappears from the path.
func BenchmarkPeerHit(b *testing.B) {
	body := make([]byte, 64<<10)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(originRTT)
		w.Header().Set("Cache-Control", "public, immutable")
		w.Write(body)
	}))
	b.Cleanup(origin.Close)
	sibling, err := New(origin.URL, Config{})
	if err != nil {
		b.Fatal(err)
	}
	sibSrv := httptest.NewServer(sibling)
	b.Cleanup(sibSrv.Close)
	front := benchFrontend(b, origin.URL, sibSrv.URL)
	benchGet(b, sibSrv.URL+"/obj/k") // warm the sibling (one origin fetch)
	benchGet(b, front.URL+"/obj/k")  // warm connections
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, front.URL+"/obj/k")
	}
	b.StopTimer()
	if s := sibling.Stats(); s.Misses != 1 {
		b.Fatalf("sibling fetched origin %d times, want 1", s.Misses)
	}
}
