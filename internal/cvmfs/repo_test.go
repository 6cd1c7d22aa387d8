package cvmfs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"lobster/internal/stats"
)

func TestEmptyRepository(t *testing.T) {
	r := NewRepository("test.cern.ch")
	if r.Revision() != 1 {
		t.Errorf("revision = %d", r.Revision())
	}
	if r.RootHash() == "" {
		t.Error("empty root hash")
	}
	st, err := lookup(r, "/")
	if err != nil || st.Type != TypeDir || st.Size != 0 {
		t.Errorf("root = %+v, %v", st, err)
	}
}

// readFile resolves path and returns the object behind it, as a mount
// reads a file.
func readFile(r *Repository, path string) ([]byte, error) {
	st, err := lookup(r, path)
	if err != nil {
		return nil, err
	}
	return r.Object(st.Hash)
}

func TestAddAndRead(t *testing.T) {
	r := NewRepository("test.cern.ch")
	tx := r.Begin()
	if err := tx.AddFile("/sw/v1/bin/run.sh", []byte("#!/bin/sh")); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddFile("/sw/v1/lib/libx.so", bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(r, "/sw/v1/bin/run.sh")
	if err != nil || string(data) != "#!/bin/sh" {
		t.Fatalf("read = %q, %v", data, err)
	}
	st, err := lookup(r, "/sw/v1")
	if err != nil || st.Type != TypeDir {
		t.Fatalf("lookup dir: %+v, %v", st, err)
	}
	if st.Size != 109 {
		t.Errorf("dir size = %d, want 109", st.Size)
	}
}

func TestOverlayRevisions(t *testing.T) {
	r := NewRepository("test.cern.ch")
	tx := r.Begin()
	tx.AddFile("/a.txt", []byte("one"))
	tx.Commit()
	rev1 := r.Revision()

	tx2 := r.Begin()
	tx2.AddFile("/b.txt", []byte("two"))
	tx2.Commit()
	if r.Revision() != rev1+1 {
		t.Errorf("revision did not advance")
	}
	// Both files visible after overlay.
	if _, err := readFile(r, "/a.txt"); err != nil {
		t.Errorf("a.txt lost across revisions: %v", err)
	}
	if _, err := readFile(r, "/b.txt"); err != nil {
		t.Errorf("b.txt missing: %v", err)
	}
}

func TestLookupErrors(t *testing.T) {
	r := NewRepository("test.cern.ch")
	tx := r.Begin()
	tx.AddFile("/dir/file.txt", []byte("x"))
	tx.Commit()
	if _, err := lookup(r, "/missing"); err == nil {
		t.Error("missing path resolved")
	}
	if _, err := lookup(r, "relative/path"); err == nil {
		t.Error("relative path accepted")
	}
	if _, err := lookup(r, "/dir/file.txt/under"); err == nil {
		t.Error("descended through a file")
	}
	if _, err := lookup(r, "/../etc"); err == nil {
		t.Error("dotdot path accepted")
	}
}

func TestTransactionErrors(t *testing.T) {
	r := NewRepository("test.cern.ch")
	tx := r.Begin()
	if err := tx.AddFile("nope", nil); err == nil {
		t.Error("relative path accepted")
	}
	if err := tx.AddFile("/", nil); err == nil {
		t.Error("root file accepted")
	}
	tx.AddFile("/d/f", []byte("x"))
	if err := tx.AddFile("/d/f/deeper", nil); err == nil {
		t.Error("file used as directory")
	}
	if err := tx.AddFile("/d", nil); err == nil {
		t.Error("directory overwritten by file")
	}
	tx.Commit()
	if err := tx.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	if err := tx.AddFile("/late", nil); err == nil {
		t.Error("add after commit accepted")
	}
}

func TestContentAddressingDedup(t *testing.T) {
	r := NewRepository("test.cern.ch")
	tx := r.Begin()
	same := []byte("identical content")
	tx.AddFile("/a/one.txt", same)
	tx.AddFile("/b/two.txt", same)
	tx.Commit()
	stA, _ := lookup(r, "/a/one.txt")
	stB, _ := lookup(r, "/b/two.txt")
	if stA.Hash != stB.Hash {
		t.Error("identical content has distinct hashes")
	}
}

func TestDeterministicRootHash(t *testing.T) {
	build := func() string {
		r := NewRepository("x")
		tx := r.Begin()
		tx.AddFile("/z/file2", []byte("bbb"))
		tx.AddFile("/a/file1", []byte("aaa"))
		tx.Commit()
		return r.RootHash()
	}
	if build() != build() {
		t.Error("root hash not deterministic")
	}
}

func TestPathResolutionProperty(t *testing.T) {
	check := func(rawParts []string, content []byte) bool {
		// A repository per case: in a shared one a file at /d from one
		// case collides with a directory /d/x from a later one.
		r := NewRepository("prop.cern.ch")
		// Build a clean path from generated parts.
		var parts []string
		for _, p := range rawParts {
			p = strings.Map(func(c rune) rune {
				if c == '/' || c == 0 {
					return 'x'
				}
				return c
			}, p)
			if p == "" || p == "." || p == ".." {
				p = "d"
			}
			parts = append(parts, p)
			if len(parts) == 4 {
				break
			}
		}
		if len(parts) == 0 {
			return true
		}
		path := "/" + strings.Join(parts, "/")
		tx := r.Begin()
		if err := tx.AddFile(path, content); err != nil {
			return false
		}
		if err := tx.Commit(); err != nil {
			return false
		}
		got, err := readFile(r, path)
		if err != nil {
			return false
		}
		return bytes.Equal(got, content)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPServer(t *testing.T) {
	r := NewRepository("cms.cern.ch")
	tx := r.Begin()
	tx.AddFile("/v1/lib.so", []byte("library bytes"))
	tx.Commit()
	srv := NewServer(r)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Manifest.
	resp, err := http.Get(ts.URL + "/cvmfs/cms.cern.ch/.cvmfspublished")
	if err != nil {
		t.Fatal(err)
	}
	var pub Published
	json.NewDecoder(resp.Body).Decode(&pub)
	resp.Body.Close()
	if pub.Root != r.RootHash() || pub.Revision != r.Revision() {
		t.Fatalf("manifest = %+v", pub)
	}

	// Object fetch.
	st, _ := lookup(r, "/v1/lib.so")
	resp, err = http.Get(ts.URL + "/cvmfs/cms.cern.ch/data/" + st.Hash)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "library bytes" {
		t.Fatalf("object body = %q", body)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("data response not immutable-cacheable: %q", cc)
	}

	// Missing object.
	resp, _ = http.Get(ts.URL + "/cvmfs/cms.cern.ch/data/deadbeef")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing object status = %d", resp.StatusCode)
	}
	// Wrong repo name.
	resp, _ = http.Get(ts.URL + "/cvmfs/other.cern.ch/.cvmfspublished")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("wrong repo status = %d", resp.StatusCode)
	}
}

func TestPublishRelease(t *testing.T) {
	r := NewRepository("cms.cern.ch")
	cfg := TestRelease("CMSSW_7_4_0")
	paths, err := PublishRelease(r, cfg, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 26 {
		t.Fatalf("published %d paths", len(paths))
	}
	for _, p := range paths {
		if _, err := readFile(r, p); err != nil {
			t.Errorf("published path unreadable: %s: %v", p, err)
		}
	}
	st, err := lookup(r, "/CMSSW_7_4_0")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Libraries)*cfg.LibBytes + int64(cfg.DataFiles)*cfg.DataBytes + int64(cfg.Scripts)*cfg.ScriptSize
	if st.Size != want {
		t.Errorf("release size = %d, want %d", st.Size, want)
	}
}

func TestPublishReleaseUniqueContent(t *testing.T) {
	r := NewRepository("cms.cern.ch")
	_, err := PublishRelease(r, TestRelease("V1"), stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	// Each library must hash distinctly (content fill is randomised).
	h1, _ := lookup(r, "/V1/lib/libcms0000.so")
	h2, _ := lookup(r, "/V1/lib/libcms0001.so")
	if h1.Hash == h2.Hash {
		t.Error("two libraries share a hash; content fill broken")
	}
}

// lookup resolves path through r's committed catalogs, as a mount does
// through the ones it fetches.
func lookup(r *Repository, path string) (*Entry, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	cur := Entry{Type: TypeDir, Hash: r.rootHash}
	for i, p := range parts {
		if cur.Type != TypeDir {
			return nil, fmt.Errorf("%q: %q is not a directory", path, parts[i-1])
		}
		var cat Catalog
		if err := json.Unmarshal(r.objects[cur.Hash], &cat); err != nil {
			return nil, fmt.Errorf("catalog %s: %w", cur.Hash, err)
		}
		found := false
		for _, e := range cat.Entries {
			if e.Name == p {
				cur, found = e, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%s: no such file or directory", path)
		}
	}
	return &cur, nil
}
