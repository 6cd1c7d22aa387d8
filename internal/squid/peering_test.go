package squid

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// peerPair wires two proxies onto one origin with proxy b peering at
// proxy a, returning their test servers and the origin hit counter.
func peerPair(t *testing.T) (aURL, bURL string, a, b *Proxy, originHits func() int64) {
	t.Helper()
	origin, hits := newOrigin(nil)
	t.Cleanup(origin.Close)
	var err error
	a, err = New(origin.URL, Config{})
	if err != nil {
		t.Fatal(err)
	}
	aSrv := httptest.NewServer(a)
	t.Cleanup(aSrv.Close)
	b, err = New(origin.URL, Config{Peers: []string{aSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	bSrv := httptest.NewServer(b)
	t.Cleanup(bSrv.Close)
	return aSrv.URL, bSrv.URL, a, b, hits.Load
}

func TestPeerHitAvoidsOrigin(t *testing.T) {
	aURL, bURL, a, b, originHits := peerPair(t)
	// Warm the sibling: one origin fetch. A client can hold every byte
	// before the proxy's pump has counted and cached them, so each fetch
	// below waits for that bookkeeping before the next step reads it.
	cached := func(s Stats) bool { return s.CachedObjects == 1 }
	if body, _ := get(t, aURL+"/obj/x"); body != "body:/obj/x" {
		t.Fatalf("warming fetch: %q", body)
	}
	waitStats(t, a, "a caching the warmed object", cached)
	// b's miss must be fed by a's cache, not the origin.
	body, cache := get(t, bURL+"/obj/x")
	if body != "body:/obj/x" || cache != "MISS" {
		t.Fatalf("peer-fed fetch: %q %q", body, cache)
	}
	waitStats(t, b, "b caching the peer-fed object", cached)
	if n := originHits(); n != 1 {
		t.Errorf("origin fetched %d times, want 1 (peer hit must bypass it)", n)
	}
	if s := b.Stats(); s.PeerHits != 1 || s.PeerBytes == 0 {
		t.Errorf("b stats = %+v, want one peer hit", s)
	}
	if s := a.Stats(); s.ProbesServed != 1 {
		t.Errorf("a stats = %+v, want one probe served", s)
	}
	// The peer-fed object is now cached locally on b.
	if _, cache := get(t, bURL+"/obj/x"); cache != "HIT" {
		t.Error("peer-fed object not cached locally")
	}
}

func TestPeerMissFallsThroughToOrigin(t *testing.T) {
	_, bURL, a, b, originHits := peerPair(t)
	body, _ := get(t, bURL+"/obj/cold")
	if body != "body:/obj/cold" {
		t.Fatalf("fetch through cold peer: %q", body)
	}
	if n := originHits(); n != 1 {
		t.Errorf("origin fetched %d times, want 1", n)
	}
	if s := b.Stats(); s.PeerHits != 0 {
		t.Errorf("b recorded a peer hit on a cold peer: %+v", s)
	}
	if s := a.Stats(); s.ProbesServed != 1 || s.Misses != 0 {
		t.Errorf("a stats = %+v: probe must not count or trigger a miss fetch", s)
	}
}

func TestMutualPeersDoNotRecurse(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	// a and b peer at each other; both cold. A probe must answer 504
	// from cache state alone — it must never probe onward, or two cold
	// mutual peers would wait on each other forever.
	a, err := New(origin.URL, Config{})
	if err != nil {
		t.Fatal(err)
	}
	aReal := httptest.NewServer(a)
	defer aReal.Close()
	b, err := New(origin.URL, Config{Peers: []string{aReal.URL}})
	if err != nil {
		t.Fatal(err)
	}
	bReal := httptest.NewServer(b)
	defer bReal.Close()
	if err := a.SetPeers(bReal.URL); err != nil {
		t.Fatal(err)
	}

	body, _ := get(t, bReal.URL+"/obj/mutual")
	if body != "body:/obj/mutual" {
		t.Fatalf("fetch with mutual peering: %q", body)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("origin fetched %d times, want 1", n)
	}
}

// TestPeeredStormSingleOriginFetch is the composition guarantee: a
// concurrent wave of identical requests against a peered proxy still
// costs exactly one origin fetch — the wave coalesces onto one pump,
// and that single pump does the probe-then-origin sequence once.
func TestPeeredStormSingleOriginFetch(t *testing.T) {
	delay := make(chan struct{})
	origin, hits := newOrigin(delay)
	defer origin.Close()
	a, err := New(origin.URL, Config{})
	if err != nil {
		t.Fatal(err)
	}
	aSrv := httptest.NewServer(a)
	defer aSrv.Close()
	b, err := New(origin.URL, Config{Peers: []string{aSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	bSrv := httptest.NewServer(b)
	defer bSrv.Close()

	const waves = 24
	var wg sync.WaitGroup
	errs := make(chan error, waves)
	for i := 0; i < waves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(bSrv.URL + "/obj/storm")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil {
				errs <- err
			}
		}()
	}
	waitCoalesced(t, b, waves-1) // everyone has arrived; now release the origin
	close(delay)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("origin fetched %d times for one key, want exactly 1", n)
	}
	s := b.Stats()
	if s.Misses != 1 || s.Coalesced != waves-1 {
		t.Errorf("b stats = %+v, want 1 miss and %d coalesced", s, waves-1)
	}
}

func TestBadPeerRejected(t *testing.T) {
	origin, _ := newOrigin(nil)
	defer origin.Close()
	if _, err := New(origin.URL, Config{Peers: []string{"not a url"}}); err == nil {
		t.Fatal("relative peer URL accepted")
	}
}

func TestDeadPeerFallsThroughToOrigin(t *testing.T) {
	origin, hits := newOrigin(nil)
	defer origin.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on
	p, err := New(origin.URL, Config{Peers: []string{deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()
	body, _ := get(t, ts.URL+"/obj/resilient")
	if body != "body:/obj/resilient" {
		t.Fatalf("fetch with dead peer: %q", body)
	}
	if hits.Load() != 1 {
		t.Errorf("origin fetched %d times, want 1", hits.Load())
	}
}
