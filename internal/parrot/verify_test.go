package parrot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"lobster/internal/bufpool"
	"lobster/internal/cvmfs"
	"lobster/internal/faultinject"
	"lobster/internal/squid"
)

// TestHashesMustBeHex: a hash becomes a cache path, so a manifest or a
// catalog naming anything but 64 lowercase hex digits is refused with
// the name of where it came from, and a file outside the cache directory
// is never read as a hit.
func TestHashesMustBeHex(t *testing.T) {
	base := t.TempDir()
	if err := os.WriteFile(filepath.Join(base, "outside"), []byte("not a cvmfs object"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := json.Marshal(cvmfs.Catalog{Entries: []cvmfs.Entry{{Name: "secret", Type: cvmfs.TypeFile, Hash: "../outside", Size: 18}}})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(cat)
	hostile := hex.EncodeToString(sum[:])
	for _, tc := range []struct {
		name, root, want string
	}{
		{"catalog entry", hostile, "catalog " + hostile},
		{"manifest root", "../outside", "manifest of cms.cern.ch"},
		{"upper-case root", strings.ToUpper(hostile), "manifest of cms.cern.ch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/cvmfs/cms.cern.ch/.cvmfspublished":
					json.NewEncoder(w).Encode(cvmfs.Published{Root: tc.root, Revision: 1})
				case "/cvmfs/cms.cern.ch/data/" + hostile:
					w.Write(cat)
				default:
					http.NotFound(w, r)
				}
			}))
			defer ts.Close()
			c, err := NewCache(filepath.Join(base, "cache-"+strings.ReplaceAll(tc.name, " ", "-")), ModeAlien)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := c.Instance("a")
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMount(ts.URL, "cms.cern.ch", inst, nil)
			if err == nil {
				var rep *SetupReport
				rep, err = m.WarmRelease("/")
				if err == nil {
					t.Fatalf("warm succeeded: %+v; %d hits, the file outside the cache among them", rep, rep.Hits)
				}
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestCorruptObjectNotInstalled: an object whose bytes do not hash to
// its name fails the warm with an error naming it, nothing is installed
// under that name, and once the origin serves the true bytes the next
// warm reads them.
func TestCorruptObjectNotInstalled(t *testing.T) {
	repo, _, paths := testRepo(t)
	victim := repoEntry(t, repo, paths[0]).Hash
	var corrupt atomic.Bool
	corrupt.Store(true)
	origin := cvmfs.NewServer(repo)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if corrupt.Load() && strings.HasSuffix(r.URL.Path, "/data/"+victim) {
			data, _ := repo.Object(victim)
			bad := append([]byte(nil), data...)
			bad[0] ^= 0xff
			w.Write(bad)
			return
		}
		origin.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c, err := NewCache(t.TempDir(), ModeAlien)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.Instance("a")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMount(ts.URL, "cms.cern.ch", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := m.WarmRelease("/CMSSW_7_4_0"); err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("warm through a corrupting origin: %+v, %v; want an error naming %s", rep, err, victim)
	}
	if _, err := os.Stat(filepath.Join(c.dir, victim)); !os.IsNotExist(err) {
		t.Fatalf("corrupted object installed under its hash (stat: %v)", err)
	}
	corrupt.Store(false)
	if _, err := m.WarmRelease("/CMSSW_7_4_0"); err != nil {
		t.Fatal(err)
	}
	want, _ := repo.Object(victim)
	if got, err := readFile(m, paths[0]); err != nil || string(got) != string(want) {
		t.Errorf("after the origin healed: %d bytes, %v; want the true %d", len(got), err, len(want))
	}
}

// TestCorruptProxyCopyRefetched: an origin response corrupted on its way
// into the proxy is refetched once by the node that finds it fails its
// hash, with no-cache, and the proxy keeps the true bytes from then on:
// three nodes with fresh caches all warm the release, and the proxy
// counts exactly one miss more than a clean run.
func TestCorruptProxyCopyRefetched(t *testing.T) {
	repo, _, _ := testRepo(t)
	warmThree := func(fault *faultinject.Injector) (squid.Stats, []error) {
		origin := httptest.NewServer(cvmfs.NewServer(repo))
		defer origin.Close()
		proxy, err := squid.New(origin.URL, squid.Config{Fault: fault})
		if err != nil {
			t.Fatal(err)
		}
		proxyURL, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		var errs []error
		for node := 0; node < 3; node++ {
			c, err := NewCache(t.TempDir(), ModeAlien)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := c.Instance("task-1")
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMount(proxyURL, "cms.cern.ch", inst, nil)
			if err == nil {
				_, err = m.WarmRelease("/CMSSW_7_4_0")
			}
			errs = append(errs, err)
		}
		return proxy.Stats(), errs
	}
	clean, _ := warmThree(nil)
	// The first origin round trip is the manifest, which names no hash;
	// the second is the root catalog.
	fault := faultinject.New(&faultinject.Plan{Rules: []faultinject.Rule{{
		Component: "squid_origin", Op: "roundtrip", Action: faultinject.ActCorrupt, After: 1, Times: 1}}})
	st, errs := warmThree(fault)
	for node, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", node, err)
		}
	}
	if st.Misses != clean.Misses+1 || st.OriginErrors != 0 {
		t.Errorf("proxy with one corrupted origin response: %d misses, %d origin errors; want %d, 0 (one refetch)",
			st.Misses, st.OriginErrors, clean.Misses+1)
	}
}

// TestWarmReleaseHotAllocs pins a hot software set-up at three
// allocations (the report and the walk's bookkeeping): an os.File, a
// path copy or a fileStat per object is back if this fails.
func TestWarmReleaseHotAllocs(t *testing.T) {
	if poolDropsPuts {
		t.Skip("sync.Pool drops Puts under -race; the pooled chunk would count")
	}
	_, ts, _ := testRepo(t)
	c, err := NewCache(t.TempDir(), ModeAlien)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := warmOn(t, c, "a", ts.URL)
	m, err := NewMount(ts.URL, "cms.cern.ch", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	bufpool.Warm(1)
	allocs := testing.AllocsPerRun(50, func() {
		if rep, err := m.WarmRelease("/CMSSW_7_4_0"); err != nil || rep.Misses != 0 {
			t.Fatalf("hot warm: %+v, %v", rep, err)
		}
	})
	if allocs > 3 {
		t.Errorf("hot WarmRelease: %v allocs, want at most 3", allocs)
	}
}
