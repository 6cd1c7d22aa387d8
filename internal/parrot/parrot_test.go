package parrot

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lobster/internal/cvmfs"
	"lobster/internal/squid"
	"lobster/internal/stats"
)

// testRepo publishes a small release and returns the repository, its HTTP
// server, and the list of file paths.
func testRepo(t testing.TB) (*cvmfs.Repository, *httptest.Server, []string) {
	t.Helper()
	repo := cvmfs.NewRepository("cms.cern.ch")
	paths, err := cvmfs.PublishRelease(repo, cvmfs.TestRelease("CMSSW_7_4_0"), stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cvmfs.NewServer(repo))
	t.Cleanup(ts.Close)
	return repo, ts, paths
}

func newInstance(t *testing.T, mode Mode, id string) *Instance {
	t.Helper()
	c, err := NewCache(t.TempDir(), mode)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.Instance(id)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestMountReadFile(t *testing.T) {
	repo, ts, paths := testRepo(t)
	inst := newInstance(t, ModeAlien, "0")
	m, err := NewMount(ts.URL, "cms.cern.ch", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.RootHash() != repo.RootHash() {
		t.Error("mount pinned wrong root")
	}
	want, _ := repo.ReadFile(paths[0])
	got, err := m.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("content mismatch through mount")
	}
	if _, err := m.ReadFile("/CMSSW_7_4_0/does/not/exist"); err == nil {
		t.Error("missing path resolved")
	}
	if _, err := m.ReadFile("/CMSSW_7_4_0/lib"); err == nil {
		t.Error("directory read as file")
	}
	if _, err := m.ReadFile("relative"); err == nil {
		t.Error("relative path accepted")
	}
}

func TestMountHotCacheServesLocally(t *testing.T) {
	_, ts, paths := testRepo(t)
	inst := newInstance(t, ModeAlien, "0")
	m, err := NewMount(ts.URL, "cms.cern.ch", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile(paths[0]); err != nil {
		t.Fatal(err)
	}
	misses := inst.Stats().Misses
	if _, err := m.ReadFile(paths[0]); err != nil {
		t.Fatal(err)
	}
	if inst.Stats().Misses != misses {
		t.Error("re-read caused a new miss")
	}
	if inst.Stats().Hits == 0 {
		t.Error("no hits recorded")
	}
}

func TestWarmReleaseColdThenHot(t *testing.T) {
	_, ts, paths := testRepo(t)
	inst := newInstance(t, ModeAlien, "0")
	m, err := NewMount(ts.URL, "cms.cern.ch", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.WarmRelease("/CMSSW_7_4_0")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Files != len(paths) {
		t.Errorf("warm read %d files, want %d", cold.Files, len(paths))
	}
	if cold.Misses == 0 || cold.BytesFetched == 0 {
		t.Errorf("cold warm fetched nothing: %+v", cold)
	}
	hot, err := m.WarmRelease("/CMSSW_7_4_0")
	if err != nil {
		t.Fatal(err)
	}
	if hot.Misses != 0 {
		t.Errorf("hot warm missed %d times", hot.Misses)
	}
	if hot.Bytes != cold.Bytes {
		t.Errorf("hot bytes %d != cold bytes %d", hot.Bytes, cold.Bytes)
	}
}

func TestMountThroughSquid(t *testing.T) {
	repo, _, _ := testRepo(t)
	origin := cvmfs.NewServer(repo)
	ts := httptest.NewServer(origin)
	defer ts.Close()
	proxy, err := squid.New(ts.URL, squid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()

	// Two workers with separate caches behind one proxy: the second worker's
	// cold cache should be served almost entirely from the proxy.
	instA := newInstance(t, ModeAlien, "a")
	mA, err := NewMount(proxySrv.URL, "cms.cern.ch", instA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mA.WarmRelease("/CMSSW_7_4_0"); err != nil {
		t.Fatal(err)
	}
	// Only immutable objects count; the no-cache manifest legitimately
	// passes through on every mount.
	objectsAfterA := origin.Requests()

	instB := newInstance(t, ModeAlien, "b")
	mB, err := NewMount(proxySrv.URL, "cms.cern.ch", instB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mB.WarmRelease("/CMSSW_7_4_0"); err != nil {
		t.Fatal(err)
	}
	if origin.Requests() != objectsAfterA {
		t.Errorf("second worker caused origin object traffic: %d -> %d requests",
			objectsAfterA, origin.Requests())
	}
	if proxy.Stats().Hits == 0 {
		t.Error("proxy recorded no hits")
	}
}

func TestAlienCacheSingleFlight(t *testing.T) {
	cache, err := NewCache(t.TempDir(), ModeAlien)
	if err != nil {
		t.Fatal(err)
	}
	var fetches atomic.Int64
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst, err := cache.Instance(fmt.Sprint(i))
			if err != nil {
				errs[i] = err
				return
			}
			_, _, errs[i] = inst.GetOrFetch("shared-object", func() ([]byte, error) {
				fetches.Add(1)
				return []byte("payload"), nil
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if fetches.Load() != 1 {
		t.Errorf("shared object fetched %d times, want 1", fetches.Load())
	}
}

func TestAlienCacheConcurrentDistinctObjects(t *testing.T) {
	cache, _ := NewCache(t.TempDir(), ModeAlien)
	// Distinct objects must be able to populate concurrently: start n
	// fetches that all block until every fetch has started.
	const n = 4
	started := make(chan struct{}, n)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst, _ := cache.Instance(fmt.Sprint(i))
			inst.GetOrFetch(fmt.Sprintf("obj-%d", i), func() ([]byte, error) {
				started <- struct{}{}
				<-release
				return []byte("x"), nil
			})
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started // deadlocks (test timeout) if population is serialised
	}
	close(release)
	wg.Wait()
}

func TestPrivateLockedSerialisesPopulation(t *testing.T) {
	cache, _ := NewCache(t.TempDir(), ModePrivateLocked)
	var inFetch atomic.Int64
	var maxInFetch atomic.Int64
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst, _ := cache.Instance(fmt.Sprint(i))
			inst.GetOrFetch(fmt.Sprintf("obj-%d", i), func() ([]byte, error) {
				cur := inFetch.Add(1)
				for {
					max := maxInFetch.Load()
					if cur <= max || maxInFetch.CompareAndSwap(max, cur) {
						break
					}
				}
				defer inFetch.Add(-1)
				return []byte("x"), nil
			})
		}(i)
	}
	wg.Wait()
	if maxInFetch.Load() != 1 {
		t.Errorf("private-locked cache allowed %d concurrent populations", maxInFetch.Load())
	}
}

func TestPrivateLockedSecondReaderHitsAfterWait(t *testing.T) {
	cache, _ := NewCache(t.TempDir(), ModePrivateLocked)
	i1, _ := cache.Instance("1")
	i2, _ := cache.Instance("2")
	i1.GetOrFetch("obj", func() ([]byte, error) { return []byte("x"), nil })
	_, hit, err := i2.GetOrFetch("obj", func() ([]byte, error) {
		t.Error("second instance refetched a populated object")
		return []byte("x"), nil
	})
	if err != nil || !hit {
		t.Errorf("hit=%v err=%v", hit, err)
	}
}

func TestPerInstanceCachesAreIndependent(t *testing.T) {
	cache, _ := NewCache(t.TempDir(), ModePerInstance)
	i1, _ := cache.Instance("1")
	i2, _ := cache.Instance("2")
	var fetches atomic.Int64
	fetch := func() ([]byte, error) {
		fetches.Add(1)
		return []byte("x"), nil
	}
	i1.GetOrFetch("obj", fetch)
	i2.GetOrFetch("obj", fetch)
	if fetches.Load() != 2 {
		t.Errorf("per-instance caches shared an object (fetches = %d)", fetches.Load())
	}
	if i1.Stats().BytesFetched != 1 || i2.Stats().BytesFetched != 1 {
		t.Error("per-instance byte accounting wrong")
	}
}

func TestFetchErrorPropagates(t *testing.T) {
	for _, mode := range []Mode{ModePrivateLocked, ModePerInstance, ModeAlien} {
		cache, _ := NewCache(t.TempDir(), mode)
		inst, _ := cache.Instance("0")
		boom := errors.New("origin down")
		_, _, err := inst.GetOrFetch("obj", func() ([]byte, error) { return nil, boom })
		if !errors.Is(err, boom) {
			t.Errorf("mode %v: err = %v", mode, err)
		}
		// A subsequent successful fetch must work (no stuck in-flight state).
		_, _, err = inst.GetOrFetch("obj", func() ([]byte, error) { return []byte("ok"), nil })
		if err != nil {
			t.Errorf("mode %v: retry after error: %v", mode, err)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModePrivateLocked.String() != "private-locked" ||
		ModePerInstance.String() != "per-instance" ||
		ModeAlien.String() != "alien" {
		t.Error("mode names wrong")
	}
}

func TestMountFailoverToSecondProxy(t *testing.T) {
	_, ts, paths := testRepo(t)
	inst := newInstance(t, ModeAlien, "0")
	// First proxy is dead; the second is the live origin.
	dead := "http://127.0.0.1:1"
	client := &http.Client{Timeout: 500 * time.Millisecond}
	m, err := NewMountFailover([]string{dead, ts.URL}, "cms.cern.ch", inst, client)
	if err != nil {
		t.Fatalf("mount did not fail over: %v", err)
	}
	if _, err := m.ReadFile(paths[0]); err != nil {
		t.Fatalf("read through failover: %v", err)
	}
}

func TestMountAllProxiesDown(t *testing.T) {
	inst := newInstance(t, ModeAlien, "0")
	client := &http.Client{Timeout: 200 * time.Millisecond}
	_, err := NewMountFailover([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		"cms.cern.ch", inst, client)
	if err == nil {
		t.Fatal("mount succeeded with every proxy down")
	}
	if _, err := NewMountFailover(nil, "x", inst, nil); err == nil {
		t.Fatal("empty proxy list accepted")
	}
}

func TestMountList(t *testing.T) {
	_, ts, _ := testRepo(t)
	inst := newInstance(t, ModeAlien, "0")
	m, err := NewMount(ts.URL, "cms.cern.ch", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := m.List("/CMSSW_7_4_0")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name] = true
	}
	for _, want := range []string{"bin", "data", "lib"} {
		if !names[want] {
			t.Errorf("release directory missing %q: %v", want, names)
		}
	}
	if _, err := m.List("/CMSSW_7_4_0/lib/libcms0000.so"); err == nil {
		t.Error("List of a file succeeded")
	}
	if _, err := m.List("/nope"); err == nil {
		t.Error("List of missing dir succeeded")
	}
}

func TestMountBadRepoName(t *testing.T) {
	_, ts, _ := testRepo(t)
	inst := newInstance(t, ModeAlien, "0")
	if _, err := NewMount(ts.URL, "wrong.repo.name", inst, nil); err == nil {
		t.Error("mount of unknown repository succeeded")
	}
}

func TestInstanceStatsAccumulate(t *testing.T) {
	cache, _ := NewCache(t.TempDir(), ModeAlien)
	inst, _ := cache.Instance("0")
	inst.GetOrFetch("a", func() ([]byte, error) { return []byte("xx"), nil })
	inst.GetOrFetch("b", func() ([]byte, error) { return []byte("yyy"), nil })
	inst.GetOrFetch("a", func() ([]byte, error) { return nil, nil })
	st := inst.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.BytesFetched != 5 {
		t.Errorf("stats = %+v", st)
	}
	if cache.Mode() != ModeAlien || cache.Dir() == "" {
		t.Error("accessors broken")
	}
}
