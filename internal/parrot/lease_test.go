package parrot

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lobster/internal/cvmfs"
	"lobster/internal/stats"
	"lobster/internal/telemetry"
)

// leaseRig is a repository behind an origin that counts manifest GETs,
// and a cache whose clock the test steps by hand.
type leaseRig struct {
	repo      *cvmfs.Repository
	ts        *httptest.Server
	manifests atomic.Int64
	cache     *Cache
	clock     time.Time
}

func newLeaseRig(t *testing.T, mode Mode) *leaseRig {
	t.Helper()
	r := &leaseRig{repo: cvmfs.NewRepository("cms.cern.ch"), clock: time.Unix(1_000_000, 0)}
	if _, err := cvmfs.PublishRelease(r.repo, cvmfs.TestRelease("CMSSW_7_4_0"), stats.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	origin := cvmfs.NewServer(r.repo)
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/.cvmfspublished") {
			r.manifests.Add(1)
		}
		origin.ServeHTTP(w, req)
	}))
	t.Cleanup(r.ts.Close)
	var err error
	if r.cache, err = NewCache(t.TempDir(), mode); err != nil {
		t.Fatal(err)
	}
	r.cache.now = func() time.Time { return r.clock }
	return r
}

func (r *leaseRig) mount(t *testing.T, id string) *Mount {
	t.Helper()
	inst, err := r.cache.Instance(id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMount(r.ts.URL, "cms.cern.ch", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestLease: inside the TTL a mount costs the origin nothing,
// at the TTL it costs one GET, and a revision published in between is
// what that GET brings back — never earlier, never later.
func TestManifestLease(t *testing.T) {
	r := newLeaseRig(t, ModeAlien)
	reg := telemetry.NewRegistry()
	r.cache.Instrument(reg)

	first := r.mount(t, "a").rootHash
	if first != r.repo.RootHash() || r.manifests.Load() != 1 {
		t.Fatalf("first mount: root %s after %d manifest GETs, want %s after 1", first, r.manifests.Load(), r.repo.RootHash())
	}
	if _, err := cvmfs.PublishRelease(r.repo, cvmfs.TestRelease("CMSSW_7_4_1"), stats.NewRand(2)); err != nil {
		t.Fatal(err)
	}
	republished := r.repo.RootHash()
	if republished == first {
		t.Fatal("publishing a second release left the root hash unchanged")
	}

	r.clock = r.clock.Add(manifestTTL - time.Second)
	for _, id := range []string{"b", "c", "d"} {
		if got := r.mount(t, id).rootHash; got != first {
			t.Errorf("mount %s inside the TTL pinned %s, want the leased %s", id, got, first)
		}
	}
	if n := r.manifests.Load(); n != 1 {
		t.Errorf("%d manifest GETs inside the TTL, want the first mount's 1", n)
	}

	r.clock = r.clock.Add(time.Second) // exactly the TTL: expired
	if got := r.mount(t, "e").rootHash; got != republished {
		t.Errorf("mount at the TTL pinned %s, want the republished %s", got, republished)
	}
	if got := r.mount(t, "f").rootHash; got != republished {
		t.Errorf("mount on the renewed lease pinned %s, want %s", got, republished)
	}
	if n := r.manifests.Load(); n != 2 {
		t.Errorf("%d manifest GETs after one expiry, want 2", n)
	}

	vec := reg.CounterVec("lobster_parrot_manifest_total", "", "outcome")
	if leased, fetched := vec.With("leased").Value(), vec.With("fetched").Value(); leased != 4 || fetched != 2 {
		t.Errorf("manifest counters: leased %d fetched %d, want 4 and 2", leased, fetched)
	}
}

// TestManifestLeaseKey: the lease belongs to one proxy and one
// repository; another proxy in front of the same origin asks the origin
// itself.
func TestManifestLeaseKey(t *testing.T) {
	r := newLeaseRig(t, ModeAlien)
	r.mount(t, "a")
	other := httptest.NewServer(r.ts.Config.Handler)
	defer other.Close()
	inst, _ := r.cache.Instance("b")
	if _, err := NewMount(other.URL, "cms.cern.ch", inst, nil); err != nil {
		t.Fatal(err)
	}
	if n := r.manifests.Load(); n != 2 {
		t.Errorf("%d manifest GETs for two proxies, want one each", n)
	}
	if _, err := NewMount(r.ts.URL, "other.cern.ch", inst, nil); err == nil {
		t.Error("a repository the origin does not serve mounted off another repository's lease")
	}
}

// TestManifestLeaseExpiredFetchError: once the lease is out, a dead
// origin fails the mount as it always did; the stale root is not served.
func TestManifestLeaseExpiredFetchError(t *testing.T) {
	r := newLeaseRig(t, ModeAlien)
	r.mount(t, "a")
	r.ts.Close()
	if got := r.mount(t, "b").rootHash; got != r.repo.RootHash() {
		t.Errorf("leased mount with the origin down pinned %s", got)
	}
	r.clock = r.clock.Add(manifestTTL)
	inst, _ := r.cache.Instance("c")
	_, err := NewMount(r.ts.URL, "cms.cern.ch", inst, nil)
	if err == nil || !strings.Contains(err.Error(), "fetching manifest") {
		t.Errorf("expired lease, origin down: err = %v, want the manifest fetch error", err)
	}
}
