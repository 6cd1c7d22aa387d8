package parrot

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/cvmfs"
)

// Mount provides file access to a CVMFS repository over HTTP, the way a
// Parrot-intercepted application sees /cvmfs/<repo>. Objects pass through
// the Instance cache; catalogs are likewise cached, so a hot cache resolves
// paths without any network traffic.
//
// A mount may be given several proxy base URLs: requests fail over down the
// list, as real CVMFS clients do once a site deploys additional squids
// (the paper's remedy when one proxy saturates at ~1000 workers).
type Mount struct {
	bases  []string // proxy or stratum base URLs, in failover order
	repo   string
	client *http.Client
	inst   *Instance

	rootHash string // pinned at mount time for a consistent view
}

// NewMount attaches to the repository named repo at the HTTP base URL
// (typically a squid proxy). The repository revision is pinned at mount
// time, as CVMFS clients pin a catalog snapshot per job.
func NewMount(base, repo string, inst *Instance, client *http.Client) (*Mount, error) {
	return NewMountFailover([]string{base}, repo, inst, client)
}

// NewMountFailover attaches through an ordered list of proxy base URLs;
// every request tries them in order until one answers.
func NewMountFailover(bases []string, repo string, inst *Instance, client *http.Client) (*Mount, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("parrot: mount needs at least one proxy URL")
	}
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	trimmed := make([]string, len(bases))
	for i, b := range bases {
		trimmed[i] = strings.TrimRight(b, "/")
	}
	m := &Mount{bases: trimmed, repo: repo, client: client, inst: inst}
	// Mounts of one worker process share the manifest for its TTL, as the
	// tasks of a node share one CVMFS client's; the objects it names are
	// still looked up on disk, so a wiped cache directory stays cold.
	key := leaseKey{strings.Join(trimmed, " "), repo}
	if root, ok := inst.cache.leasedRoot(key); ok {
		m.rootHash = root
		return m, nil
	}
	body, err := m.fetch("/cvmfs/" + repo + "/.cvmfspublished")
	if err != nil {
		return nil, fmt.Errorf("parrot: fetching manifest: %w", err)
	}
	var pub cvmfs.Published
	if err := json.Unmarshal(body, &pub); err != nil {
		return nil, fmt.Errorf("parrot: decoding manifest: %w", err)
	}
	if pub.Root == "" {
		return nil, fmt.Errorf("parrot: manifest has empty root")
	}
	m.rootHash = pub.Root
	inst.cache.grantLease(key, pub.Root)
	return m, nil
}

// fetch GETs path from the first proxy that answers.
func (m *Mount) fetch(path string) ([]byte, error) {
	var firstErr error
	for _, base := range m.bases {
		resp, err := m.client.Get(base + path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		body := bufpool.Arrival{Announced: resp.ContentLength}
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			if firstErr == nil {
				firstErr = fmt.Errorf("status %s from %s", resp.Status, base)
			}
			continue
		}
		return body.Bytes(), nil
	}
	return nil, fmt.Errorf("parrot: all %d proxies failed for %s: %w", len(m.bases), path, firstErr)
}

// RootHash returns the pinned root catalog hash.
func (m *Mount) RootHash() string { return m.rootHash }

// Stats returns the underlying cache instance counters.
func (m *Mount) Stats() InstanceStats { return m.inst.Stats() }

// object fetches a content-addressed object through the cache.
func (m *Mount) object(hash string) ([]byte, error) {
	data, _, err := m.inst.GetOrFetch(hash, func() ([]byte, error) {
		return m.fetch("/cvmfs/" + m.repo + "/data/" + hash)
	})
	return data, err
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
	var cat cvmfs.Catalog
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, fmt.Errorf("parrot: corrupt catalog %s: %w", hash, err)
	}
	return m.inst.rememberCatalog(hash, &cat), nil
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

// ReadFile returns the content of the file at path.
func (m *Mount) ReadFile(path string) ([]byte, error) {
	e, err := m.resolve(path)
	if err != nil {
		return nil, err
	}
	if e.Type != cvmfs.TypeFile {
		return nil, fmt.Errorf("parrot: %s is a directory", path)
	}
	return m.object(e.Hash)
}

// List returns the entries of the directory at path.
func (m *Mount) List(path string) ([]cvmfs.Entry, error) {
	e, err := m.resolve(path)
	if err != nil {
		return nil, err
	}
	if e.Type != cvmfs.TypeDir {
		return nil, fmt.Errorf("parrot: %s is not a directory", path)
	}
	cat, err := m.catalog(e.Hash)
	if err != nil {
		return nil, err
	}
	return cat.Entries, nil
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
