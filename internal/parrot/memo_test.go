package parrot

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lobster/internal/bufpool"
	"lobster/internal/cvmfs"
	"lobster/internal/telemetry"
)

// releaseObjects is what one walk of the test release meets exactly
// once each: 26 files plus the root, release, lib, data and bin catalogs.
const releaseObjects = 26 + 5

func warmOn(t testing.TB, c *Cache, id, url string) (*Instance, *SetupReport) {
	t.Helper()
	inst, err := c.Instance(id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMount(url, "cms.cern.ch", inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.WarmRelease("/CMSSW_7_4_0")
	if err != nil {
		t.Fatal(err)
	}
	return inst, rep
}

// TestMemoKeepsModeSemantics: the decoded-catalog memo lives on the
// Cache, but what each Figure 6 mode downloads, hits and waits for is
// still decided by what is on disk where.
func TestMemoKeepsModeSemantics(t *testing.T) {
	_, ts, _ := testRepo(t)
	for _, mode := range []Mode{ModePrivateLocked, ModePerInstance, ModeAlien} {
		c, err := NewCache(t.TempDir(), mode)
		if err != nil {
			t.Fatal(err)
		}
		_, cold := warmOn(t, c, "a", ts.URL)
		if cold.Misses != releaseObjects || cold.Hits != 0 {
			t.Errorf("%v: cold warm = %d misses, %d hits; want %d, 0", mode, cold.Misses, cold.Hits, releaseObjects)
		}
		inst, second := warmOn(t, c, "b", ts.URL)
		switch mode {
		case ModePerInstance:
			// A second instance has its own directory: the memo, keyed
			// by directory, must not spare it a single download.
			if second.Misses != releaseObjects || second.Hits != 0 || second.BytesFetched != cold.BytesFetched {
				t.Errorf("%v: second instance = %+v, want a full download like %+v", mode, second, cold)
			}
		default:
			if second.Misses != 0 || second.Hits != releaseObjects {
				t.Errorf("%v: second instance = %d misses, %d hits; want 0, %d", mode, second.Misses, second.Hits, releaseObjects)
			}
			if w := inst.Stats().LockWait; w != 0 {
				t.Errorf("%v: a fully hot instance waited %v on other instances", mode, w)
			}
		}
		// The same instance id again: hot in every mode.
		if _, again := warmOn(t, c, "b", ts.URL); again.Misses != 0 || again.Hits != releaseObjects || again.Bytes != cold.Bytes {
			t.Errorf("%v: re-warm = %+v, want all %d hits", mode, again, releaseObjects)
		}
	}
}

// TestMemoForgetsVanishedObjects: the memo answers only for objects
// still on disk. A catalog removed from the cache directory is fetched
// again (once), and a wiped directory is cold again.
func TestMemoForgetsVanishedObjects(t *testing.T) {
	repo, ts, _ := testRepo(t)
	c, err := NewCache(t.TempDir(), ModeAlien)
	if err != nil {
		t.Fatal(err)
	}
	warmOn(t, c, "a", ts.URL)
	root := filepath.Join(c.Dir(), repo.RootHash())
	if err := os.Remove(root); err != nil {
		t.Fatal(err)
	}
	if _, rep := warmOn(t, c, "b", ts.URL); rep.Misses != 1 || rep.Hits != releaseObjects-1 {
		t.Errorf("after removing the root catalog: %d misses, %d hits; want 1, %d", rep.Misses, rep.Hits, releaseObjects-1)
	}
	if _, err := os.Stat(root); err != nil {
		t.Errorf("root catalog not re-installed: %v", err)
	}
	if _, rep := warmOn(t, c, "c", ts.URL); rep.Misses != 0 {
		t.Errorf("re-fetched catalog missed again: %+v", rep)
	}
	entries, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		os.Remove(filepath.Join(c.Dir(), e.Name()))
	}
	if _, rep := warmOn(t, c, "d", ts.URL); rep.Misses != releaseObjects {
		t.Errorf("after wiping the cache directory: %d misses, want %d", rep.Misses, releaseObjects)
	}
}

func TestMemoIsBounded(t *testing.T) {
	c, err := NewCache(t.TempDir(), ModeAlien)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := c.Instance("0")
	for i := 0; i < memoMax+50; i++ {
		inst.rememberCatalog(fmt.Sprint("hash-", i), &cvmfs.Catalog{})
	}
	if len(c.memo) > memoMax {
		t.Errorf("memo holds %d catalogs, bound is %d", len(c.memo), memoMax)
	}
}

func TestMemoCounters(t *testing.T) {
	_, ts, _ := testRepo(t)
	reg := telemetry.NewRegistry()
	c, err := NewCache(t.TempDir(), ModeAlien)
	if err != nil {
		t.Fatal(err)
	}
	c.Instrument(reg)
	warmOn(t, c, "a", ts.URL)
	warmOn(t, c, "b", ts.URL)
	vec := reg.CounterVec("lobster_parrot_catalog_memo_total", "", "outcome")
	if hit, miss := vec.With("hit").Value(), vec.With("miss").Value(); hit != 5 || miss != 5 {
		t.Errorf("memo counters after a cold and a hot warm: hit %d miss %d, want 5 and 5", hit, miss)
	}
	// Uninstrumented, counting costs nothing.
	plain, _ := NewCache(t.TempDir(), ModeAlien)
	plain.Instrument(nil)
	if n := testing.AllocsPerRun(100, func() { plain.memoHit.Inc(); plain.memoMiss.Inc() }); n != 0 {
		t.Errorf("nil-registry memo counters: %v allocs/op, want 0", n)
	}
}

// BenchmarkWarmReleaseHot is a task's software set-up on a node whose
// cache is full: B/op and allocs/op are pinned in BENCH_dataplane.json,
// so reading files into fresh slices or re-parsing catalogs per task
// fails `make bench-guard`.
func BenchmarkWarmReleaseHot(b *testing.B) {
	_, ts, _ := testRepo(b)
	c, err := NewCache(b.TempDir(), ModeAlien)
	if err != nil {
		b.Fatal(err)
	}
	inst, _ := warmOn(b, c, "bench", ts.URL)
	m, err := NewMount(ts.URL, "cms.cern.ch", inst, nil)
	if err != nil {
		b.Fatal(err)
	}
	bufpool.Warm(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := m.WarmRelease("/CMSSW_7_4_0")
		if err != nil || rep.Misses != 0 {
			b.Fatalf("hot warm: %+v, %v", rep, err)
		}
	}
}
