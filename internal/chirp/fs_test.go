package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// spoolEntries lists what the spool directory under root holds (nothing
// if it was never made).
func spoolEntries(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(root, spoolDir))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestPutAndWriteFileLandWithOneMode: a streamed put and a WriteFile
// publish through the same spool and land with the same permissions.
func TestPutAndWriteFileLandWithOneMode(t *testing.T) {
	srv, fs := newTestServer(t, 4)
	if err := dial(t, srv).PutFile("/out/put.root", []byte("streamed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/out/write.root", []byte("written")); err != nil {
		t.Fatal(err)
	}
	put, err := os.Stat(filepath.Join(fs.Root(), "out", "put.root"))
	if err != nil {
		t.Fatal(err)
	}
	written, err := os.Stat(filepath.Join(fs.Root(), "out", "write.root"))
	if err != nil {
		t.Fatal(err)
	}
	if put.Mode() != written.Mode() {
		t.Errorf("a streamed put lands %v, a WriteFile %v", put.Mode(), written.Mode())
	}
	if put.Mode().Perm()&0o044 != 0o044 {
		t.Errorf("a streamed put lands %v: group and others cannot read it", put.Mode())
	}
}

// TestSpoolUnreachable: no path through the FileSystem interface or the
// protocol reaches the spool directory, in any letter case, and the
// root's listing leaves it out.
func TestSpoolUnreachable(t *testing.T) {
	srv, fs := newTestServer(t, 4)
	c := dial(t, srv)
	if err := c.PutFile("/seen.root", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(fs.Root(), spoolDir)); err != nil {
		t.Fatalf("the first put made no spool directory: %v", err)
	}
	for _, p := range []string{"/" + spoolDir, "/" + spoolDir + "/", "/" + spoolDir + "/1", "/.CHIRP-Spool/x", "/a/../" + spoolDir} {
		if _, err := fs.Stat(p); err == nil {
			t.Errorf("Stat(%q) succeeded", p)
		}
		if _, err := fs.List(p); err == nil {
			t.Errorf("List(%q) succeeded", p)
		}
		if _, err := fs.ReadFile(p); err == nil {
			t.Errorf("ReadFile(%q) succeeded", p)
		}
		if _, _, err := fs.OpenRead(p); err == nil {
			t.Errorf("OpenRead(%q) succeeded", p)
		}
		if err := fs.Remove(p); err == nil {
			t.Errorf("Remove(%q) succeeded", p)
		}
		if err := fs.WriteFile(p, []byte("x")); err == nil {
			t.Errorf("WriteFile(%q) succeeded", p)
		}
		if err := c.PutFile(p, []byte("x")); err == nil {
			t.Errorf("putfile %q succeeded", p)
		}
	}
	for _, p := range []string{"/" + spoolDir + "x", "/.chirp-spooled/y", "/d/" + spoolDir + "/z"} {
		if err := c.PutFile(p, []byte("ok")); err != nil {
			t.Errorf("putfile %q, a name beside the spool, was refused: %v", p, err)
		}
	}
	ls, err := c.List("/")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ls {
		names = append(names, e.Name)
	}
	if got := strings.Join(names, " "); got != ".chirp-spooled .chirp-spoolx d seen.root" {
		t.Errorf("the root lists %q", got)
	}
	if left := spoolEntries(t, fs.Root()); len(left) != 0 {
		t.Errorf("the spool holds %v after every put ended", left)
	}
}

// TestFailedPutsLeaveNoSpoolFile: a put that fails while it spools, or at
// the rename onto a directory, or because a parent is a file, removes its
// spool file and leaves the target as it was.
func TestFailedPutsLeaveNoSpoolFile(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/file", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(fs.Root(), "dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	half := func(w io.Writer) error {
		w.Write([]byte("half"))
		return errors.New("peer hung up")
	}
	whole := func(w io.Writer) error { _, err := w.Write([]byte("whole")); return err }
	for _, c := range []struct {
		name, path string
		fill       func(io.Writer) error
	}{
		{"fill fails", "/file", half},
		{"fill fails in a new directory", "/new/x", half},
		{"onto a directory", "/dir", whole},
		{"under a file", "/file/x", whole},
	} {
		if err := fs.WriteFileFrom(c.path, 5, c.fill); err == nil {
			t.Errorf("%s: the put succeeded", c.name)
		}
		if left := spoolEntries(t, fs.Root()); len(left) != 0 {
			t.Errorf("%s: the spool holds %v", c.name, left)
		}
	}
	if got, err := fs.ReadFile("/file"); err != nil || string(got) != "kept" {
		t.Errorf("the target reads %q, %v after failed puts", got, err)
	}
	if st, err := fs.Stat("/dir"); err != nil || !st.IsDir {
		t.Errorf("the directory is %+v, %v after a put onto it", st, err)
	}
	if _, err := fs.Stat("/new/x"); err == nil {
		t.Error("a put whose payload failed was published")
	}
}

// regularFiles lists every regular file under root.
func regularFiles(root string) []string {
	var files []string
	filepath.WalkDir(root, func(path string, d iofs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	return files
}

// TestPutsSpoolBesideWhenSpoolUnusable: a root where the spool directory
// cannot be made (here a file holds its name; a read-only root fails the
// same way) spools each put beside its target instead. The puts land
// whole, a failed one leaves nothing, and the file is left alone.
func TestPutsSpoolBesideWhenSpoolUnusable(t *testing.T) {
	srv, fs := newTestServer(t, 4)
	blocker := filepath.Join(fs.Root(), spoolDir)
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := dial(t, srv)
	for _, p := range []string{"/out/a.root", "/out/b.root", "/c.root"} {
		if err := c.PutFile(p, []byte(p)); err != nil {
			t.Fatalf("put %s: %v", p, err)
		}
		if got, err := fs.ReadFile(p); err != nil || string(got) != p {
			t.Fatalf("%s reads %q, %v", p, got, err)
		}
	}
	if !fs.beside.Load() {
		t.Error("the puts went through a spool directory that cannot be made")
	}
	torn := func(w io.Writer) error {
		w.Write([]byte("half"))
		return errors.New("peer hung up")
	}
	if err := fs.WriteFileFrom("/out/torn.root", 8, torn); err == nil {
		t.Error("a put whose payload failed succeeded")
	}
	want := []string{blocker, filepath.Join(fs.Root(), "c.root"), filepath.Join(fs.Root(), "out", "a.root"), filepath.Join(fs.Root(), "out", "b.root")}
	if got := regularFiles(fs.Root()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("the root holds %v, want %v", got, want)
	}
	if got, err := os.ReadFile(blocker); err != nil || string(got) != "not a directory" {
		t.Errorf("the file in the spool's place reads %q, %v", got, err)
	}
}

// TestSpoolNameTaken: a spool name another LocalFS on the same root holds
// is skipped, not overwritten.
func TestSpoolNameTaken(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/first", []byte("1")); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(fs.Root(), spoolDir, strconv.FormatUint(fs.seq.Load()+1, 36))
	if err := os.WriteFile(next, []byte("another server's payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/second", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(next); err != nil || string(got) != "another server's payload" {
		t.Errorf("the taken spool name reads %q, %v", got, err)
	}
	if got, err := fs.ReadFile("/second"); err != nil || string(got) != "2" {
		t.Errorf("the put past a taken name reads %q, %v", got, err)
	}
}

// TestNewLocalFSSweepsStaleSpool: a LocalFS starting on a root sweeps
// the spool files that have gone unwritten for spoolMaxAge, what a server
// killed mid-payload leaves behind, and keeps a fresh one, which may be a
// second live server's put in progress.
func TestNewLocalFSSweepsStaleSpool(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, spoolDir), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(root, spoolDir, "stale")
	fresh := filepath.Join(root, spoolDir, "fresh")
	for _, name := range []string{stale, fresh} {
		if err := os.WriteFile(name, []byte("half a payload"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-spoolMaxAge - time.Minute)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	almost := time.Now().Add(-spoolMaxAge + time.Hour)
	if err := os.Chtimes(fresh, almost, almost); err != nil {
		t.Fatal(err)
	}
	fs, err := NewLocalFS(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := spoolEntries(t, root); len(got) != 1 || got[0] != "fresh" {
		t.Errorf("the spool holds %q after start, want only the fresh file", got)
	}
	if err := fs.WriteFile("/after", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if got := spoolEntries(t, root); len(got) != 1 || got[0] != "fresh" {
		t.Errorf("the spool holds %q after a put, want only the fresh file", got)
	}
}

// TestRewritesReadWhole: with no lock in LocalFS, a reader racing puts
// that rewrite one file sees one whole version or another, never a mix
// or a prefix, whether it reads the file whole or streams it.
func TestRewritesReadWhole(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 << 10
	version := func(v byte) []byte { return bytes.Repeat([]byte{v}, size) }
	if err := fs.WriteFile("/out/f", version(0)); err != nil {
		t.Fatal(err)
	}
	whole := func(got []byte) error {
		if len(got) != size || bytes.Count(got, got[:1]) != size {
			return fmt.Errorf("read %d bytes of mixed versions", len(got))
		}
		return nil
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 8) // one send at most per goroutine
	for w := 1; w <= 4; w++ {
		writers.Add(1)
		go func(v byte) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				if err := fs.WriteFile("/out/f", version(v)); err != nil {
					errs <- err
					return
				}
			}
		}(byte(w))
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(streamed bool) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var got []byte
				var err error
				if streamed {
					var rc io.ReadCloser
					if rc, _, err = fs.OpenRead("/out/f"); err == nil {
						got, err = io.ReadAll(rc)
						rc.Close()
					}
				} else {
					got, err = fs.ReadFile("/out/f")
				}
				if err == nil {
					err = whole(got)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r%2 == 0)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if left := spoolEntries(t, fs.Root()); len(left) != 0 {
		t.Errorf("the spool holds %v after every put ended", left)
	}
}
