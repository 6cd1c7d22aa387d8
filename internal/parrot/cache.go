// Package parrot implements the client side of CVMFS access as the paper
// uses Parrot: an unprivileged layer that fetches content-addressed objects
// over HTTP (directly or through squid proxies) and keeps them in a local
// cache directory on the worker node. The fetches ride wire.HTTPClient,
// the module's one GET client, under a per-object ceiling (maxObject); a
// manifest or catalog naming anything but a content hash is refused
// before any hash becomes a cache path.
//
// The package implements the five cache-sharing configurations of Figure 6:
//
//	(a) ModePrivateLocked — one cache directory, exclusive write lock: when
//	    the cache is cold only the lock holder makes progress.
//	(b,c) ModePerInstance — every Parrot instance uses its own directory:
//	    full concurrency but every instance downloads the full working set.
//	(d,e) ModeAlien — one shared cache with concurrent population (the
//	    "alien cache"): safe because CVMFS is read-only, each object is
//	    fetched exactly once per node, and readers never block on writers
//	    of other objects.
package parrot

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lobster/internal/cvmfs"
	"lobster/internal/telemetry"
)

// Mode selects the cache-sharing configuration (Figure 6).
type Mode int

// Cache sharing modes.
const (
	// ModePrivateLocked is Figure 6(a): a single cache directory whose
	// population is serialised by an exclusive lock.
	ModePrivateLocked Mode = iota
	// ModePerInstance is Figure 6(b)/(c): independent caches per instance.
	ModePerInstance
	// ModeAlien is Figure 6(d)/(e): one shared cache, concurrent population
	// with per-object single-flight.
	ModeAlien
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePrivateLocked:
		return "private-locked"
	case ModePerInstance:
		return "per-instance"
	case ModeAlien:
		return "alien"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Cache is a node-local object cache shared by some number of Parrot
// instances. It is safe for concurrent use.
type Cache struct {
	dir  string
	mode Mode

	populateMu sync.Mutex // ModePrivateLocked: global write lock

	mu       sync.Mutex
	inflight map[string]*population // ModeAlien: per-object single-flight

	// memo holds decoded catalogs for the life of the process, so a
	// slot's second task parses nothing the first already parsed. The
	// key is the directory an object sits in plus its content hash: the
	// hash makes an entry immutable, the directory keeps ModePerInstance
	// instances from seeing each other's downloads. A full memo forgets
	// an arbitrary entry (one re-parse of an object still on disk).
	memoMu            sync.Mutex
	memo              map[memoKey]*hotCatalog
	memoHit, memoMiss *telemetry.Counter

	// leases holds the root hash each (proxy, repository) last
	// published, for manifestTTL: the manifest is the one mutable
	// resource, so without a lease every mount is an origin round trip.
	leaseMu                       sync.Mutex
	leases                        map[leaseKey]lease
	now                           func() time.Time // tests step the clock
	manifestLeased, manifestFetch *telemetry.Counter
}

type memoKey struct{ dir, hash string }

const memoMax = 1024

type leaseKey struct{ proxy, repo string }

type lease struct {
	root    string
	fetched time.Time
}

// manifestTTL is how long a fetched manifest answers later mounts: the
// real CVMFS client's default, and like there not a knob — a republished
// revision is seen by new jobs at most this much later.
const manifestTTL = 240 * time.Second

type population struct {
	done chan struct{}
	err  error
}

// NewCache creates a cache rooted at dir.
func NewCache(dir string, mode Mode) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("parrot: creating cache dir: %w", err)
	}
	return &Cache{dir: dir, mode: mode, inflight: make(map[string]*population),
		memo: make(map[memoKey]*hotCatalog), leases: make(map[leaseKey]lease), now: time.Now}, nil
}

// Instrument counts catalog-memo lookups on reg as
// lobster_parrot_catalog_memo_total{outcome="hit|miss"} and mounts as
// lobster_parrot_manifest_total{outcome="leased|fetched"}. Call before
// use; a nil registry leaves the cache uninstrumented at zero cost.
func (c *Cache) Instrument(reg *telemetry.Registry) {
	vec := reg.CounterVec("lobster_parrot_catalog_memo_total",
		"Catalog lookups answered from the decoded-catalog memo (hit) or by reading and parsing the object (miss).",
		"outcome")
	c.memoHit, c.memoMiss = vec.With("hit"), vec.With("miss")
	vec = reg.CounterVec("lobster_parrot_manifest_total",
		"Mounts whose root hash came from the manifest lease (leased) or from a GET of .cvmfspublished (fetched).",
		"outcome")
	c.manifestLeased, c.manifestFetch = vec.With("leased"), vec.With("fetched")
}

// leasedRoot returns the root hash key's manifest named, while the lease
// is younger than manifestTTL.
func (c *Cache) leasedRoot(key leaseKey) (string, bool) {
	c.leaseMu.Lock()
	l, ok := c.leases[key]
	c.leaseMu.Unlock()
	if !ok || c.now().Sub(l.fetched) >= manifestTTL {
		return "", false
	}
	c.manifestLeased.Inc()
	return l.root, true
}

// grantLease records a manifest fetched just now.
func (c *Cache) grantLease(key leaseKey, root string) {
	c.manifestFetch.Inc()
	c.leaseMu.Lock()
	c.leases[key] = lease{root: root, fetched: c.now()}
	c.leaseMu.Unlock()
}

// InstanceStats counts one instance's cache traffic.
type InstanceStats struct {
	Hits         int
	Misses       int
	BytesFetched int64
	LockWait     time.Duration // time spent blocked on other instances
}

// Instance is one Parrot instance's handle onto the cache. Instances are
// not safe for concurrent use by multiple goroutines; create one per task.
type Instance struct {
	cache *Cache
	id    string
	dir   string // instance-private dir in ModePerInstance, else cache dir
	stats InstanceStats
}

// Instance returns a handle for the named instance.
func (c *Cache) Instance(id string) (*Instance, error) {
	dir := c.dir
	if c.mode == ModePerInstance {
		dir = filepath.Join(c.dir, "instance-"+id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("parrot: creating instance dir: %w", err)
		}
	}
	return &Instance{cache: c, id: id, dir: dir}, nil
}

// Stats returns the instance's counters.
func (i *Instance) Stats() InstanceStats { return i.stats }

func (i *Instance) objectPath(hash string) string {
	return filepath.Join(i.dir, hash)
}

// cPath is objectPath NUL-terminated. A catalog's hashes are checked
// to be hex before it is remembered (validHash), so no other NUL is in it.
func (i *Instance) cPath(hash string) []byte {
	p := i.objectPath(hash)
	b := make([]byte, len(p)+1)
	copy(b, p)
	return b
}

// readIfPresent returns the cached object, or nil if absent.
func (i *Instance) readIfPresent(hash string) []byte {
	data, err := os.ReadFile(i.objectPath(hash))
	if err != nil {
		return nil
	}
	return data
}

// hotCatalog is a decoded catalog with the cache paths a hot walk opens,
// joined once when the catalog is remembered instead of once per task.
// They are NUL-terminated so the scan hands them to the kernel as they
// are (scan_linux.go).
type hotCatalog struct {
	*cvmfs.Catalog
	path  []byte   // the catalog object itself
	paths [][]byte // paths[n] holds Entries[n]'s object
}

// memoCatalog returns the decoded catalog remembered for hash, counting
// a cache hit, or nil. The memo only answers for an object still on
// disk: a wiped cache directory is cold again, whatever memory holds.
func (i *Instance) memoCatalog(hash string) *hotCatalog {
	c := i.cache
	c.memoMu.Lock()
	cat := c.memo[memoKey{i.dir, hash}]
	c.memoMu.Unlock()
	if cat != nil {
		if onDisk(cat.path) {
			i.stats.Hits++
			c.memoHit.Inc()
			return cat
		}
	}
	c.memoMiss.Inc()
	return nil
}

// rememberCatalog memoises the catalog decoded from the object at hash.
// Remembered catalogs are shared between tasks and must not be modified.
func (i *Instance) rememberCatalog(hash string, cat *cvmfs.Catalog) *hotCatalog {
	hot := &hotCatalog{Catalog: cat, path: i.cPath(hash), paths: make([][]byte, len(cat.Entries))}
	for n, e := range cat.Entries {
		hot.paths[n] = i.cPath(e.Hash)
	}
	c := i.cache
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if len(c.memo) >= memoMax {
		for k := range c.memo {
			delete(c.memo, k)
			break
		}
	}
	c.memo[memoKey{i.dir, hash}] = hot
	return hot
}

// writeObject installs data atomically (temp + rename) so concurrent readers
// never observe a partial object.
func (i *Instance) writeObject(hash string, data []byte) error {
	tmp, err := os.CreateTemp(i.dir, "tmp-"+hash+"-*")
	if err != nil {
		return fmt.Errorf("parrot: staging object: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("parrot: writing object: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, i.objectPath(hash)); err != nil {
		os.Remove(name)
		return fmt.Errorf("parrot: installing object: %w", err)
	}
	return nil
}

// GetOrFetch returns the object with the given hash, consulting the cache
// first and calling fetch on a miss. The hit result reports whether the
// object came from cache. Population concurrency follows the cache mode.
func (i *Instance) GetOrFetch(hash string, fetch func() ([]byte, error)) (data []byte, hit bool, err error) {
	if data := i.readIfPresent(hash); data != nil {
		i.stats.Hits++
		return data, true, nil
	}
	switch i.cache.mode {
	case ModePrivateLocked:
		return i.fetchLocked(hash, fetch)
	case ModePerInstance:
		return i.fetchDirect(hash, fetch)
	case ModeAlien:
		return i.fetchAlien(hash, fetch)
	default:
		return nil, false, fmt.Errorf("parrot: unknown cache mode %d", i.cache.mode)
	}
}

// fetchDirect downloads with no cross-instance coordination.
func (i *Instance) fetchDirect(hash string, fetch func() ([]byte, error)) ([]byte, bool, error) {
	data, err := fetch()
	if err != nil {
		return nil, false, err
	}
	i.stats.Misses++
	i.stats.BytesFetched += int64(len(data))
	if err := i.writeObject(hash, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// fetchLocked serialises all population through one exclusive lock: the
// Figure 6(a) behaviour where, with a cold cache, only the lock holder makes
// progress.
func (i *Instance) fetchLocked(hash string, fetch func() ([]byte, error)) ([]byte, bool, error) {
	start := time.Now()
	i.cache.populateMu.Lock()
	i.stats.LockWait += time.Since(start)
	defer i.cache.populateMu.Unlock()
	// Another instance may have populated the object while we waited.
	if data := i.readIfPresent(hash); data != nil {
		i.stats.Hits++
		return data, true, nil
	}
	return i.fetchDirect(hash, fetch)
}

// fetchAlien populates with per-object single-flight: concurrent misses on
// distinct objects proceed in parallel; concurrent misses on the same object
// share one download.
func (i *Instance) fetchAlien(hash string, fetch func() ([]byte, error)) ([]byte, bool, error) {
	c := i.cache
	for {
		c.mu.Lock()
		if p, ok := c.inflight[hash]; ok {
			c.mu.Unlock()
			start := time.Now()
			<-p.done
			i.stats.LockWait += time.Since(start)
			if p.err != nil {
				return nil, false, p.err
			}
			if data := i.readIfPresent(hash); data != nil {
				i.stats.Hits++
				return data, true, nil
			}
			// Populator raced with eviction; retry as populator.
			continue
		}
		p := &population{done: make(chan struct{})}
		c.inflight[hash] = p
		c.mu.Unlock()

		// A populator may have installed the object and left between our
		// first look and taking the slot: it writes before it leaves, so
		// look again before downloading a second time.
		data := i.readIfPresent(hash)
		hit := data != nil
		var err error
		if hit {
			i.stats.Hits++
		} else {
			data, _, err = i.fetchDirect(hash, fetch)
		}
		p.err = err
		c.mu.Lock()
		delete(c.inflight, hash)
		c.mu.Unlock()
		close(p.done)
		return data, hit, err
	}
}
