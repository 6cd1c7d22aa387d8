// Package cvmfs implements a content-addressed, read-only file system in the
// style of the CernVM File System: software releases are published into a
// repository as immutable objects named by their content hash, directory
// structure is kept in catalogs (themselves content-addressed), and clients
// fetch objects on demand over HTTP — typically through a hierarchy of
// caching proxies (package squid) — and keep a local cache (package parrot).
//
// The read-only property is what makes the paper's "alien cache" sharing
// safe: once an object is cached under its hash it can never change, so any
// number of concurrent readers and populators may share one cache directory.
package cvmfs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EntryType distinguishes catalog entries.
type EntryType int

// Catalog entry kinds.
const (
	TypeFile EntryType = iota
	TypeDir
)

// Entry is one name within a directory catalog.
type Entry struct {
	Name string    `json:"name"`
	Type EntryType `json:"type"`
	Hash string    `json:"hash"` // content hash of file data or sub-catalog
	Size int64     `json:"size"` // file size; for dirs, total bytes beneath
}

// Catalog is the serialized form of one directory.
type Catalog struct {
	Entries []Entry `json:"entries"`
}

// Repository is a versioned content-addressed store. Publication happens
// through a Transaction; readers see only committed state. It is safe for
// concurrent use.
type Repository struct {
	name string

	mu       sync.RWMutex
	objects  map[string][]byte // hash → content (files and catalogs)
	rootHash string            // hash of the root catalog
	revision int
}

// NewRepository returns an empty repository with the given fully-qualified
// name (e.g. "cms.cern.ch").
func NewRepository(name string) *Repository {
	r := &Repository{name: name, objects: make(map[string][]byte)}
	// Publish an empty root so readers always have a valid revision.
	tx := r.Begin()
	if err := tx.Commit(); err != nil {
		panic(fmt.Sprintf("cvmfs: committing empty root: %v", err))
	}
	return r
}

// Name returns the repository's fully-qualified name.
func (r *Repository) Name() string { return r.name }

// Revision returns the current published revision number.
func (r *Repository) Revision() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.revision
}

// RootHash returns the hash of the current root catalog.
func (r *Repository) RootHash() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rootHash
}

// Object returns the raw object with the given hash.
func (r *Repository) Object(hash string) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	data, ok := r.objects[hash]
	if !ok {
		return nil, fmt.Errorf("cvmfs: object %s not found in %s", hash, r.name)
	}
	return data, nil
}

func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Transaction is a pending publication. Files are added to an in-memory
// tree, then Commit hashes everything bottom-up and atomically swaps the
// repository root.
type Transaction struct {
	repo *Repository
	root *txDir
	done bool
}

type txDir struct {
	dirs  map[string]*txDir
	files map[string][]byte
}

func newTxDir() *txDir {
	return &txDir{dirs: make(map[string]*txDir), files: make(map[string][]byte)}
}

// Begin starts a transaction pre-populated with the current repository
// contents, so a publication is an overlay on the previous revision.
func (r *Repository) Begin() *Transaction {
	tx := &Transaction{repo: r, root: newTxDir()}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.rootHash != "" {
		r.loadInto(tx.root, r.rootHash)
	}
	return tx
}

// loadInto materialises a committed catalog subtree into tx form.
// Caller holds at least the read lock.
func (r *Repository) loadInto(dst *txDir, catalogHash string) {
	data, ok := r.objects[catalogHash]
	if !ok {
		return
	}
	var cat Catalog
	if json.Unmarshal(data, &cat) != nil {
		return
	}
	for _, e := range cat.Entries {
		switch e.Type {
		case TypeFile:
			dst.files[e.Name] = r.objects[e.Hash]
		case TypeDir:
			sub := newTxDir()
			r.loadInto(sub, e.Hash)
			dst.dirs[e.Name] = sub
		}
	}
}

// AddFile stages content at the given absolute path, creating parent
// directories as needed. Adding a path twice overwrites the staged content.
func (tx *Transaction) AddFile(path string, content []byte) error {
	if tx.done {
		return fmt.Errorf("cvmfs: transaction already committed")
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("cvmfs: cannot add file at root path %q", path)
	}
	d := tx.root
	for _, p := range parts[:len(parts)-1] {
		if _, isFile := d.files[p]; isFile {
			return fmt.Errorf("cvmfs: %q: path component %q is a file", path, p)
		}
		sub, ok := d.dirs[p]
		if !ok {
			sub = newTxDir()
			d.dirs[p] = sub
		}
		d = sub
	}
	name := parts[len(parts)-1]
	if _, isDir := d.dirs[name]; isDir {
		return fmt.Errorf("cvmfs: %q already exists as a directory", path)
	}
	d.files[name] = append([]byte(nil), content...)
	return nil
}

// Commit hashes the staged tree, stores all new objects, and publishes the
// new root. The transaction cannot be reused afterwards.
func (tx *Transaction) Commit() error {
	if tx.done {
		return fmt.Errorf("cvmfs: transaction already committed")
	}
	tx.done = true
	r := tx.repo
	r.mu.Lock()
	defer r.mu.Unlock()
	rootHash, _ := commitDir(r.objects, tx.root)
	r.rootHash = rootHash
	r.revision++
	return nil
}

// commitDir stores d's files and catalogs into objects, returning the
// catalog hash and total size beneath.
func commitDir(objects map[string][]byte, d *txDir) (string, int64) {
	var cat Catalog
	var total int64
	fileNames := make([]string, 0, len(d.files))
	for n := range d.files {
		fileNames = append(fileNames, n)
	}
	sort.Strings(fileNames)
	for _, n := range fileNames {
		content := d.files[n]
		h := hashOf(content)
		objects[h] = content
		cat.Entries = append(cat.Entries, Entry{Name: n, Type: TypeFile, Hash: h, Size: int64(len(content))})
		total += int64(len(content))
	}
	dirNames := make([]string, 0, len(d.dirs))
	for n := range d.dirs {
		dirNames = append(dirNames, n)
	}
	sort.Strings(dirNames)
	for _, n := range dirNames {
		h, sz := commitDir(objects, d.dirs[n])
		cat.Entries = append(cat.Entries, Entry{Name: n, Type: TypeDir, Hash: h, Size: sz})
		total += sz
	}
	data, err := json.Marshal(cat)
	if err != nil {
		panic(fmt.Sprintf("cvmfs: marshaling catalog: %v", err))
	}
	h := hashOf(data)
	objects[h] = data
	return h, total
}

// splitPath normalises an absolute slash path into components.
func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("cvmfs: path %q must be absolute", path)
	}
	var parts []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			return nil, fmt.Errorf("cvmfs: path %q contains '..'", path)
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}
