package squid

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// BenchmarkDataplaneColdWave measures the cold-start wave the paper's
// §5 worries about: 100 clients request the same 8 MiB object from a
// cold proxy at once. Miss coalescing must collapse the wave into one
// origin fetch; the benchmark tracks how fast the whole wave drains.
// Baseline in BENCH_dataplane.json, enforced by cmd/bench-guard.
func BenchmarkDataplaneColdWave(b *testing.B) {
	const clients, size = 100, 8 << 20
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 7)
	}
	// The length is announced, as every origin of the program announces
	// it: the squid's origin client reads no other body.
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(size))
		w.Write(body)
	}))
	defer origin.Close()
	b.SetBytes(clients * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		proxy, err := New(origin.URL, Config{CapacityBytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		front, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
		b.StartTimer()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Get(front + "/release/lib.so")
				if err != nil {
					errs <- err
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
				} else if n != size {
					errs <- io.ErrUnexpectedEOF
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
		client.CloseIdleConnections()
		proxy.Close()
		b.StartTimer()
	}
}
