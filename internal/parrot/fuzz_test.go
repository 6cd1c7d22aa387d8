package parrot

import (
	"bytes"
	"path/filepath"
	"regexp"
	"testing"
)

// contentHash is what validHash must accept and nothing else: the name
// cvmfs gives an object, 64 lowercase hex digits.
var contentHash = regexp.MustCompile(`^[0-9a-f]{64}$`)

// FuzzPeerBytes: the bytes a proxy hands a mount, read as a manifest and
// as a catalog, never panic the decode, and nothing but content hashes
// gets past it: an accepted manifest's root and every entry of an
// accepted catalog is 64 lowercase hex digits, and each becomes a cache
// path directly inside the instance's directory, with its one NUL at the
// end. A "../outside" or an upper-case hash is refused.
func FuzzPeerBytes(f *testing.F) {
	const hash = "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef"
	for _, seed := range []string{
		`{"root":"` + hash + `","revision":3}`,
		`{"root":"../outside","revision":1}`,
		`{"root":"5F70BF18A086007016E948B04AED3B82103A36BEA41755B6CDDFAF10ACE3C6EF","revision":1}`,
		`{"entries":[{"name":"lib","type":1,"hash":"` + hash + `","size":0},{"name":"run.sh","type":0,"hash":"` + hash + `","size":9}]}`,
		`{"entries":[{"name":"secret","type":0,"hash":"../outside","size":18}]}`,
		`{"entries":[{"name":"x","type":0,"hash":"` + hash[:63] + "\x00" + `","size":1}]}`,
		`{"entries":[]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	c, err := NewCache(f.TempDir(), ModeAlien)
	if err != nil {
		f.Fatal(err)
	}
	inst, err := c.Instance("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if validHash(string(data)) != contentHash.Match(data) {
			t.Fatalf("validHash(%q) = %v", data, validHash(string(data)))
		}
		if root, err := manifestRoot(data); err == nil && !contentHash.MatchString(root) {
			t.Fatalf("manifest %q accepted with root %q", data, root)
		}
		cat, err := decodeCatalog(data)
		if err != nil {
			return
		}
		for _, e := range cat.Entries {
			if !contentHash.MatchString(e.Hash) {
				t.Fatalf("catalog %q accepted with entry %q", data, e.Hash)
			}
			p := inst.cPath(e.Hash)
			if bytes.IndexByte(p, 0) != len(p)-1 || filepath.Dir(string(p[:len(p)-1])) != inst.dir {
				t.Fatalf("entry %q became the cache path %q, not one inside %s", e.Hash, p, inst.dir)
			}
		}
	})
}
