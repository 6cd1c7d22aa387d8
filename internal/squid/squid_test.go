package squid

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newOrigin returns a test origin that serves deterministic bodies and
// counts requests per path.
func newOrigin(delay chan struct{}) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if delay != nil {
			<-delay
		}
		switch {
		case strings.HasPrefix(r.URL.Path, "/missing"):
			http.NotFound(w, r)
		case strings.HasPrefix(r.URL.Path, "/nocache"):
			w.Header().Set("Cache-Control", "no-cache")
			fmt.Fprintf(w, "volatile:%s", r.URL.Path)
		default:
			w.Header().Set("Cache-Control", "public, immutable")
			fmt.Fprintf(w, "body:%s", r.URL.Path)
		}
	})
	return httptest.NewServer(h), &hits
}

// waitStats spins until p's counters satisfy done: the barrier for
// bookkeeping a proxy finishes after its client already holds the whole
// response. After a deadline it fails the test with what the proxy counted
// and returns, so the caller can still release anything it holds blocked.
func waitStats(t *testing.T, p *Proxy, what string, done func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !done(p.Stats()) {
		if time.Now().After(deadline) {
			t.Errorf("%s never happened: %+v", what, p.Stats())
			return
		}
		runtime.Gosched()
	}
}

// waitCoalesced is the arrival barrier of the storm tests: it returns
// once n requests are parked on an in-flight fetch of p. Releasing the
// origin any earlier turns late arrivals into cache hits, not waiters.
func waitCoalesced(t *testing.T, p *Proxy, n int64) {
	t.Helper()
	waitStats(t, p, fmt.Sprintf("%d requests coalescing on one fetch", n), func(s Stats) bool { return s.Coalesced >= n })
}

// listen serves p on a loopback port for the rest of the test and returns
// its base URL.
func listen(t testing.TB, p *Proxy) string {
	t.Helper()
	base, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return base
}

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.Header.Get("X-Cache")
}

func TestCacheHitAndMiss(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	p, err := New(origin.URL, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := listen(t, p)

	body, cache := get(t, base+"/obj/a")
	if body != "body:/obj/a" || cache != "MISS" {
		t.Fatalf("first fetch: %q %q", body, cache)
	}
	body, cache = get(t, base+"/obj/a")
	if body != "body:/obj/a" || cache != "HIT" {
		t.Fatalf("second fetch: %q %q", body, cache)
	}
	if hits.Load() != 1 {
		t.Errorf("origin hit %d times, want 1", hits.Load())
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.CachedObjects != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate = %g", s.HitRate())
	}
}

func TestNoCacheNotStored(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)
	get(t, base+"/nocache/x")
	get(t, base+"/nocache/x")
	if hits.Load() != 2 {
		t.Errorf("no-cache response served from cache (origin hits = %d)", hits.Load())
	}
}

// TestNoCacheRequestReplacesEntry: a request carrying Cache-Control:
// no-cache is a miss even when the object is cached, and what it fetches
// replaces the entry for every later hit. (That telling whether a request
// carries the header allocates nothing is TestHitAllocs's to show: its
// hot request carries a Cache-Control of another kind.)
func TestNoCacheRequestReplacesEntry(t *testing.T) {
	var version atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "v%d", version.Add(1))
	}))
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)
	if body, cache := get(t, base+"/obj"); body != "v1" || cache != "MISS" {
		t.Fatalf("first fetch: %q %q", body, cache)
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/obj", nil)
	req.Header.Set("Cache-Control", "no-cache")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "v2" || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("no-cache fetch: %q %q", body, resp.Header.Get("X-Cache"))
	}
	if body, cache := get(t, base+"/obj"); body != "v2" || cache != "HIT" {
		t.Fatalf("after the refetch: %q %q, want the replacement as a hit", body, cache)
	}
	if s := p.Stats(); s.Misses != 2 || s.Hits != 1 || s.CachedObjects != 1 || s.CachedBytes != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOriginErrorPropagates(t *testing.T) {
	origin, _ := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)
	resp, err := http.Get(base + "/missing/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if p.Stats().OriginErrors != 1 {
		t.Errorf("origin errors = %d", p.Stats().OriginErrors)
	}
}

func TestLRUEviction(t *testing.T) {
	origin, _ := newOrigin(nil)
	defer origin.Close()
	// Each body is "body:/obj/N" ≈ 11 bytes; capacity fits ~3.
	p, _ := New(origin.URL, Config{CapacityBytes: 34})
	base := listen(t, p)
	for i := 0; i < 5; i++ {
		get(t, fmt.Sprintf("%s/obj/%d", base, i))
	}
	s := p.Stats()
	if s.Evictions == 0 {
		t.Error("no evictions despite capacity pressure")
	}
	if s.CachedBytes > 34 {
		t.Errorf("cache over capacity: %d", s.CachedBytes)
	}
	// Oldest object must have been evicted: refetching misses.
	_, cache := get(t, base+"/obj/0")
	if cache != "MISS" {
		t.Error("evicted object served as HIT")
	}
}

func TestLRUKeepsHotEntries(t *testing.T) {
	origin, _ := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{CapacityBytes: 34})
	base := listen(t, p)
	get(t, base+"/obj/0")
	get(t, base+"/obj/1")
	get(t, base+"/obj/2")
	get(t, base+"/obj/0") // touch 0: now 1 is LRU
	get(t, base+"/obj/3") // evicts 1
	if _, cache := get(t, base+"/obj/0"); cache != "HIT" {
		t.Error("recently-touched entry evicted")
	}
	if _, cache := get(t, base+"/obj/1"); cache != "MISS" {
		t.Error("LRU entry not evicted")
	}
}

func TestOversizeObjectNotCached(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{CapacityBytes: 5})
	base := listen(t, p)
	get(t, base+"/obj/big")
	get(t, base+"/obj/big")
	if hits.Load() != 2 {
		t.Errorf("oversize object cached (hits = %d)", hits.Load())
	}
}

func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	origin, hits := newOrigin(release)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)

	const n = 8
	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(base + "/obj/shared")
			if err != nil {
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies[i] = string(b)
		}(i)
	}
	// Let all clients pile up, then release the single origin fetch.
	waitCoalesced(t, p, n-1)
	close(release)
	wg.Wait()
	if got := hits.Load(); got != 1 {
		t.Errorf("origin fetched %d times for one hot object", got)
	}
	for i, b := range bodies {
		if b != "body:/obj/shared" {
			t.Errorf("client %d got %q", i, b)
		}
	}
	if p.Stats().Coalesced == 0 {
		t.Error("no coalesced requests recorded")
	}
}

func TestProxyChaining(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	upstream, _ := New(origin.URL, Config{})
	site, _ := New(listen(t, upstream), Config{})
	siteURL := listen(t, site)

	get(t, siteURL+"/obj/chained")
	get(t, siteURL+"/obj/chained")
	if hits.Load() != 1 {
		t.Errorf("origin fetched %d times through two-level chain", hits.Load())
	}
	if site.Stats().Hits != 1 {
		t.Errorf("site proxy hits = %d", site.Stats().Hits)
	}
}

func TestBadOriginRejected(t *testing.T) {
	if _, err := New("not a url ::", Config{}); err == nil {
		t.Error("garbage origin accepted")
	}
	if _, err := New("/relative/only", Config{}); err == nil {
		t.Error("relative origin accepted")
	}
}

func TestQueryStringDistinctKeys(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)
	get(t, base+"/frontier/data?run=1")
	get(t, base+"/frontier/data?run=2")
	get(t, base+"/frontier/data?run=1")
	if hits.Load() != 2 {
		t.Errorf("query strings conflated: origin hits = %d", hits.Load())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	origin, _ := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(t, p)
	resp, err := http.Post(base+"/obj/a", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
}

func TestConcurrentMixedLoadProperty(t *testing.T) {
	// Many clients hammer overlapping keys concurrently; every response must
	// carry the right body regardless of cache state and eviction churn.
	origin, _ := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{CapacityBytes: 200}) // heavy eviction churn
	base := listen(t, p)

	const clients = 16
	const perClient = 40
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := fmt.Sprintf("/obj/%d", (c+i)%7)
				resp, err := http.Get(base + key)
				if err != nil {
					errs[c] = err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if string(body) != "body:"+key {
					errs[c] = fmt.Errorf("wrong body for %s: %q", key, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Hits+s.Misses+s.Coalesced != clients*perClient {
		t.Errorf("accounting mismatch: hits %d + misses %d + coalesced %d != %d",
			s.Hits, s.Misses, s.Coalesced, clients*perClient)
	}
}

func BenchmarkProxyHit(b *testing.B) {
	origin, _ := newOrigin(nil)
	defer origin.Close()
	p, _ := New(origin.URL, Config{})
	base := listen(b, p)
	// Prime.
	resp, err := http.Get(base + "/obj/hot")
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(base + "/obj/hot")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
