package parrot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/cvmfs"
	"lobster/internal/wire"
)

// Mount provides file access to a CVMFS repository over HTTP, the way a
// Parrot-intercepted application sees /cvmfs/<repo>. Objects pass through
// the Instance cache; catalogs are likewise cached, so a hot cache resolves
// paths without any network traffic.
type Mount struct {
	base   string // proxy or stratum base URL
	repo   string
	client *wire.HTTPClient
	inst   *Instance

	rootHash string // pinned at mount time for a consistent view
}

// maxObject is the longest body a fetch reads. The largest object any
// deploy, test or example publishes is a 16 KiB cvmfs.TestRelease
// library (lib/libcms*.so); real libraries run to tens of MiB, so this
// is bufpool.MaxSized, the most taken on a peer's word.
const maxObject = bufpool.MaxSized

// defaultClients holds the process's own client of each base a mount was
// given none for, so those mounts share their parked connections.
var defaultClients sync.Map // base → *wire.HTTPClient

// NewMount attaches to the repository named repo at the HTTP base URL
// (typically a squid proxy). The repository revision is pinned at mount
// time, as CVMFS clients pin a catalog snapshot per job. client, a client
// of base, carries the fetches; nil means the process's own client of
// base.
func NewMount(base, repo string, inst *Instance, client *wire.HTTPClient) (*Mount, error) {
	base = strings.TrimRight(base, "/")
	if client == nil {
		c, ok := defaultClients.Load(base)
		if !ok {
			fresh, err := wire.NewHTTPClient(base)
			if err != nil {
				return nil, fmt.Errorf("parrot: %w", err)
			}
			c, _ = defaultClients.LoadOrStore(base, fresh)
		}
		client = c.(*wire.HTTPClient)
	}
	m := &Mount{base: base, repo: repo, client: client, inst: inst}
	// Mounts of one worker process share the manifest for its TTL, as the
	// tasks of a node share one CVMFS client's; the objects it names are
	// still looked up on disk, so a wiped cache directory stays cold.
	key := leaseKey{m.base, repo}
	if root, ok := inst.cache.leasedRoot(key); ok {
		m.rootHash = root
		return m, nil
	}
	body, err := m.fetch("/cvmfs/"+repo+"/.cvmfspublished", false)
	if err != nil {
		return nil, fmt.Errorf("parrot: fetching manifest: %w", err)
	}
	root, err := manifestRoot(body)
	if err != nil {
		return nil, fmt.Errorf("parrot: manifest of %s: %w", repo, err)
	}
	m.rootHash = root
	inst.cache.grantLease(key, root)
	return m, nil
}

// manifestRoot decodes a .cvmfspublished manifest and returns the root
// catalog it names, which must be a content hash (validHash).
func manifestRoot(body []byte) (string, error) {
	var pub cvmfs.Published
	if err := json.Unmarshal(body, &pub); err != nil {
		return "", fmt.Errorf("decoding: %w", err)
	}
	if !validHash(pub.Root) {
		return "", fmt.Errorf("names root catalog %q, not a content hash", pub.Root)
	}
	return pub.Root, nil
}

// fetch GETs path from the mount's proxy; fresh asks the proxy to go
// back to the origin for it (Cache-Control: no-cache).
func (m *Mount) fetch(path string, fresh bool) ([]byte, error) {
	var body []byte
	err := m.client.Get([]byte(path), fresh, maxObject, nil, func(r io.Reader, n int64) error {
		body = make([]byte, n)
		_, err := io.ReadFull(r, body)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("parrot: fetching %s from %s: %w", path, m.base, err)
	}
	return body, nil
}

// validHash reports whether h is a content hash as cvmfs names objects:
// 64 lowercase hex digits, the SHA-256 of the content. Only such a name
// becomes a cache path, so none climbs out of the cache directory
// ("../x") or carries a NUL into the raw open.
func validHash(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// object fetches a content-addressed object through the cache. What
// arrives is checked against its name before the cache installs it, so a
// byte corrupted on the way is an error of this fetch, not a poisoned
// cache for every later task of the node. An object that fails the check
// is fetched once more with no-cache, as a CVMFS client does: a proxy
// that kept a corrupted copy replaces it, instead of serving it to every
// node until it is evicted.
func (m *Mount) object(hash string) ([]byte, error) {
	data, _, err := m.inst.GetOrFetch(hash, func() ([]byte, error) {
		path := "/cvmfs/" + m.repo + "/data/" + hash
		data, err := m.fetch(path, false)
		if err == nil && !hashes(data, hash) {
			data, err = m.fetch(path, true)
		}
		if err != nil {
			return nil, err
		}
		if !hashes(data, hash) {
			return nil, fmt.Errorf("parrot: object %s from %s fails its SHA-256 check", hash, m.base)
		}
		return data, nil
	})
	return data, err
}

// hashes reports whether data is the object named hash.
func hashes(data []byte, hash string) bool {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]) == hash
}

// catalog returns the decoded catalog object, parsing it at most once
// per process while it stays in the cache. The result is shared: callers
// must not modify it.
func (m *Mount) catalog(hash string) (*hotCatalog, error) {
	if cat := m.inst.memoCatalog(hash); cat != nil {
		return cat, nil
	}
	data, err := m.object(hash)
	if err != nil {
		return nil, err
	}
	cat, err := decodeCatalog(data)
	if err != nil {
		return nil, fmt.Errorf("parrot: catalog %s: %w", hash, err)
	}
	return m.inst.rememberCatalog(hash, cat), nil
}

// decodeCatalog decodes a catalog object, every entry of which must name
// a content hash (validHash): only then do its hashes become cache paths.
func decodeCatalog(data []byte) (*cvmfs.Catalog, error) {
	var cat cvmfs.Catalog
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, fmt.Errorf("corrupt: %w", err)
	}
	for _, e := range cat.Entries {
		if !validHash(e.Hash) {
			return nil, fmt.Errorf("entry %q names %q, not a content hash", e.Name, e.Hash)
		}
	}
	return &cat, nil
}

// resolve walks the catalogs from the pinned root to path.
func (m *Mount) resolve(path string) (*cvmfs.Entry, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("parrot: path %q must be absolute", path)
	}
	cur := cvmfs.Entry{Type: cvmfs.TypeDir, Hash: m.rootHash}
	for _, part := range strings.Split(path, "/") {
		if part == "" {
			continue
		}
		if cur.Type != cvmfs.TypeDir {
			return nil, fmt.Errorf("parrot: %s: not a directory", path)
		}
		cat, err := m.catalog(cur.Hash)
		if err != nil {
			return nil, err
		}
		found := false
		for _, e := range cat.Entries {
			if e.Name == part {
				cur = e
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("parrot: %s: no such file or directory", path)
		}
	}
	return &cur, nil
}

// SetupReport summarises an environment setup (reading a whole release).
type SetupReport struct {
	Files        int
	Bytes        int64
	Hits         int
	Misses       int
	BytesFetched int64
	Elapsed      time.Duration
}

// WarmRelease reads every file beneath root, as a job's environment setup
// touches its software release, and reports the cache behaviour. This is
// the operation whose cost Figure 5 plots against proxy load and Figure 11
// shows peaking during the cold-cache ramp.
func (m *Mount) WarmRelease(root string) (*SetupReport, error) {
	before := m.inst.Stats()
	start := time.Now()
	e, err := m.resolve(root)
	if err != nil {
		return nil, err
	}
	if e.Type != cvmfs.TypeDir {
		return nil, fmt.Errorf("parrot: %s is not a directory", root)
	}
	rep := &SetupReport{}
	if err := m.warm(e.Hash, rep); err != nil {
		return nil, err
	}
	after := m.inst.Stats()
	rep.Hits = after.Hits - before.Hits
	rep.Misses = after.Misses - before.Misses
	rep.BytesFetched = after.BytesFetched - before.BytesFetched
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// warm touches every file beneath the catalog at hash. It descends by
// the hashes the catalogs list — content addressing makes a path walk
// from the root redundant once the parent catalog is in hand.
func (m *Mount) warm(hash string, rep *SetupReport) error {
	cat, err := m.catalog(hash)
	if err != nil {
		return err
	}
	for i, e := range cat.Entries {
		switch e.Type {
		case cvmfs.TypeFile:
			// A hit is read through without keeping its bytes; only a
			// miss materialises the content.
			n, hit := m.inst.scanPath(cat.paths[i])
			if !hit {
				data, err := m.object(e.Hash)
				if err != nil {
					return err
				}
				n = int64(len(data))
			}
			rep.Files++
			rep.Bytes += n
		case cvmfs.TypeDir:
			if err := m.warm(e.Hash, rep); err != nil {
				return err
			}
		}
	}
	return nil
}
