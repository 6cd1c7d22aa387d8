// Package chirp implements a user-level file server and client modelled on
// the Chirp system the paper uses for output staging: an unprivileged TCP
// server exporting a directory tree (or any FileSystem backend, such as the
// hdfs package) with simple get/put/stat/list operations.
//
// The server bounds concurrently-served requests; excess connections queue.
// This is exactly the mechanism behind the periodic stage-out waves in the
// paper's Figure 11: waves of simultaneously-finishing tasks overrun the
// connection cap and are served in batches.
package chirp

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lobster/internal/bufpool"
)

// FileInfo describes one entry in a directory listing.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
}

// FileSystem is the backend a Server exports. Implementations must be safe
// for concurrent use.
type FileSystem interface {
	// ReadFile returns the content of the file at path.
	ReadFile(path string) ([]byte, error)
	// WriteFile creates or replaces the file at path, creating parents.
	WriteFile(path string, data []byte) error
	// Stat returns info for the entry at path.
	Stat(path string) (FileInfo, error)
	// List returns the entries of the directory at path, sorted by name.
	List(path string) ([]FileInfo, error)
	// Remove deletes the file at path.
	Remove(path string) error
}

// StreamReaderFS is an optional FileSystem extension for backends that
// can serve a file as a stream. The server uses it to pipe payloads
// straight from storage to the socket through pooled chunks (or kernel
// sendfile) instead of materialising the whole file in memory.
type StreamReaderFS interface {
	// OpenRead returns a reader over the file at path and its size.
	// The caller streams after any backend locking has been released,
	// so implementations must tolerate concurrent writers (chirp
	// workloads are write-once: outputs land under unique task names).
	OpenRead(path string) (io.ReadCloser, int64, error)
}

// StreamWriterFS is an optional FileSystem extension for backends that
// can absorb a payload of exactly size bytes as it arrives: the backend
// calls fill once with the writer the bytes belong in, and fill writes
// all of them or fails. A failed fill must leave the target unmodified
// (spool-then-commit), because the bytes come straight off a network peer
// that may die mid-payload.
type StreamWriterFS interface {
	// WriteFileFrom creates or replaces the file at path with what fill
	// writes.
	WriteFileFrom(path string, size int64, fill func(io.Writer) error) error
}

// CleanPath validates and normalises a client-supplied path: it must be
// absolute, slash-separated, and free of "..".
func CleanPath(p string) (string, error) {
	if !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("chirp: path %q must be absolute", p)
	}
	// Reject ".." outright rather than relying on Clean semantics: a path
	// that even mentions the parent directory is never legitimate here.
	// Every segment of an absolute path follows a slash, so the scan needs
	// no split.
	for i := 0; ; {
		j := strings.Index(p[i:], "/..")
		if j < 0 {
			break
		}
		if i += j + 3; i == len(p) || p[i] == '/' {
			return "", fmt.Errorf("chirp: path %q escapes the export root", p)
		}
	}
	return path.Clean(p), nil
}

// spoolDir is the directory under the export root that every put spools
// into before a rename publishes it; no client path reaches it.
const spoolDir = ".chirp-spool"

// spoolMaxAge is how long a spool file may go unwritten before NewLocalFS
// takes it for a killed server's leftover and removes it. A live put
// writes its file as the payload arrives, and no put of MaxPayload bytes
// stalls this long, so a second server's put on the same root is safe.
// A client stalled longer than this loses its put: the rename finds its
// spool file gone and the put fails, leaving the target alone.
const spoolMaxAge = 24 * time.Hour

// LocalFS exports a directory of the local file system. Every write
// spools into the one spool directory under the root and is published by
// one rename(2), so a reader never sees a half-written file and a target
// directory sees one namespace operation a put. A root the spool directory
// cannot serve — it cannot be made there, or a rename out of it crosses
// into another file system mounted under the root — spools every later put
// beside its target instead, as a ".chirp-spool-" file.
type LocalFS struct {
	root   string
	spool  string        // root/.chirp-spool/, made by the first put that misses it
	seq    atomic.Uint64 // names spool files
	beside atomic.Bool   // the spool directory failed this root: spool beside each target
}

// NewLocalFS returns a FileSystem rooted at dir, creating it if necessary.
func NewLocalFS(dir string) (*LocalFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chirp: creating export root: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &LocalFS{root: abs, spool: filepath.Join(abs, spoolDir) + string(filepath.Separator)}
	// Two servers on one root, or one restarted over a crashed one's
	// leftovers, start their spool names far apart; O_EXCL settles the rest.
	now := time.Now()
	l.seq.Store(uint64(now.UnixNano()))
	l.sweepSpool(now)
	return l, nil
}

// sweepSpool removes the files in the spool directory that have gone
// unwritten for spoolMaxAge: what servers killed mid-payload left there,
// where no client path can see or remove it.
func (l *LocalFS) sweepSpool(now time.Time) {
	entries, err := os.ReadDir(l.spool)
	if err != nil {
		return // no spool directory yet, or none this root can have
	}
	for _, e := range entries {
		info, err := e.Info()
		if err == nil && info.Mode().IsRegular() && now.Sub(info.ModTime()) > spoolMaxAge {
			os.Remove(l.spool + e.Name())
		}
	}
}

// Root returns the exported directory.
func (l *LocalFS) Root() string { return l.root }

func (l *LocalFS) resolve(p string) (string, error) {
	cleaned, err := CleanPath(p)
	if err != nil {
		return "", err
	}
	if isSpool(cleaned[1:]) {
		return "", fmt.Errorf("chirp: %s: reserved for the server's spool", p)
	}
	if cleaned == "/" || l.root == string(filepath.Separator) {
		return filepath.Join(l.root, filepath.FromSlash(cleaned)), nil
	}
	// Both halves are already clean: one concatenation, not a Join.
	return l.root + filepath.FromSlash(cleaned), nil
}

// isSpool reports whether rel, a clean path relative to the export root,
// is the spool directory or lies under it. Case is folded: on a
// case-insensitive file system ".CHIRP-SPOOL" is the same directory.
func isSpool(rel string) bool {
	n := len(spoolDir)
	return len(rel) >= n && strings.EqualFold(rel[:n], spoolDir) && (len(rel) == n || rel[n] == '/')
}

// ReadFile implements FileSystem.
func (l *LocalFS) ReadFile(p string) ([]byte, error) {
	fp, err := l.resolve(p)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(fp)
	if err != nil {
		return nil, fmt.Errorf("chirp: reading %s: %w", p, err)
	}
	return data, nil
}

// WriteFile implements FileSystem: data is published the way a streamed
// put is, through the spool.
func (l *LocalFS) WriteFile(p string, data []byte) error {
	return l.WriteFileFrom(p, int64(len(data)), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Stat implements FileSystem.
func (l *LocalFS) Stat(p string) (FileInfo, error) {
	fp, err := l.resolve(p)
	if err != nil {
		return FileInfo{}, err
	}
	st, err := os.Stat(fp)
	if err != nil {
		return FileInfo{}, fmt.Errorf("chirp: stat %s: %w", p, err)
	}
	return FileInfo{Name: st.Name(), Size: st.Size(), IsDir: st.IsDir()}, nil
}

// List implements FileSystem. The spool directory is left out of the
// root's listing.
func (l *LocalFS) List(p string) ([]FileInfo, error) {
	fp, err := l.resolve(p)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(fp)
	if err != nil {
		return nil, fmt.Errorf("chirp: listing %s: %w", p, err)
	}
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		if fp == l.root && isSpool(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, FileInfo{Name: e.Name(), Size: info.Size(), IsDir: e.IsDir()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// OpenRead implements StreamReaderFS. Every file is published whole by
// a rename, so the handle sees one version of it whatever lands at the
// same name while it streams.
func (l *LocalFS) OpenRead(p string) (io.ReadCloser, int64, error) {
	fp, err := l.resolve(p)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(fp)
	if err != nil {
		return nil, 0, fmt.Errorf("chirp: reading %s: %w", p, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("chirp: stat %s: %w", p, err)
	}
	if st.IsDir() {
		f.Close()
		return nil, 0, fmt.Errorf("chirp: reading %s: is a directory", p)
	}
	return f, st.Size(), nil
}

// WriteFileFrom implements StreamWriterFS: fill writes the payload into a
// fresh spool file, and one rename(2) publishes it at the target, making
// the target's parents only when that rename finds them missing. rename(2)
// refuses to put a file over a directory. A put that fails anywhere
// removes its spool file and leaves the target alone.
func (l *LocalFS) WriteFileFrom(p string, size int64, fill func(io.Writer) error) error {
	fp, err := l.resolve(p)
	if err != nil {
		return err
	}
	tmp, err := l.spoolFile(fp, fill)
	if err != nil {
		return fmt.Errorf("chirp: spooling %s: %w", p, err)
	}
	err = rename(tmp, fp)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(fp), 0o755); err == nil {
			err = rename(tmp, fp)
		}
	}
	if errors.Is(err, syscall.EXDEV) {
		// The target's directory is another file system mounted under the
		// root: copy the payload beside it, as every later put will spool.
		l.beside.Store(true)
		from := tmp
		tmp, err = l.spoolFile(fp, func(w io.Writer) error { return copyFile(w, from) })
		os.Remove(from)
		if err == nil {
			err = rename(tmp, fp)
		}
	}
	if err != nil {
		if tmp != "" {
			os.Remove(tmp)
		}
		return fmt.Errorf("chirp: writing %s: %w", p, err)
	}
	return nil
}

// spoolFile has fill write into a new spool file for the target fp — the
// server's fill splices the payload off the socket into it — and returns
// its path. On any error the spool file is already gone.
func (l *LocalFS) spoolFile(fp string, fill func(io.Writer) error) (string, error) {
	tmp, f, err := l.create(fp)
	if err != nil {
		return "", err
	}
	if err = fill(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// create opens a new spool file for the target fp: in the spool
// directory, or beside fp once the spool directory has failed this root.
func (l *LocalFS) create(fp string) (string, *os.File, error) {
	if !l.beside.Load() {
		name, f, err := l.open(l.spool, func() error { return os.Mkdir(l.spool, 0o755) })
		if !unusable(err) {
			return name, f, err
		}
		l.beside.Store(true)
	}
	dir := filepath.Dir(fp)
	return l.open(dir+string(filepath.Separator)+spoolDir+"-", func() error { return os.MkdirAll(dir, 0o755) })
}

// open creates the file prefix plus the next value of the counter,
// O_EXCL, passing over names another LocalFS on the root holds. It calls
// mkdir once if the open finds the directory missing.
func (l *LocalFS) open(prefix string, mkdir func() error) (string, *os.File, error) {
	for made := false; ; {
		// One allocation whatever the path's length (13 base-36 digits
		// hold any uint64).
		var num [13]byte
		digits := strconv.AppendUint(num[:0], l.seq.Add(1), 36)
		var b strings.Builder
		b.Grow(len(prefix) + len(digits))
		b.WriteString(prefix)
		b.Write(digits)
		name := b.String()
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		switch {
		case errors.Is(err, fs.ErrExist):
			// Another LocalFS on this root holds the name: take the next.
		case errors.Is(err, fs.ErrNotExist) && !made:
			made = true
			if err := mkdir(); err != nil && !errors.Is(err, fs.ErrExist) {
				return "", nil, err
			}
		default:
			return name, f, err
		}
	}
}

// unusable reports whether err, from making the spool directory or a file
// in it, says the spool directory cannot serve this root at all: the root
// is read-only or not this process's to write, or a file holds the name.
func unusable(err error) bool {
	return errors.Is(err, fs.ErrPermission) || errors.Is(err, syscall.EROFS) || errors.Is(err, syscall.ENOTDIR)
}

// copyFile writes the file at name to w.
func copyFile(w io.Writer, name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = bufpool.Copy(w, f)
	return err
}

// Remove implements FileSystem.
func (l *LocalFS) Remove(p string) error {
	fp, err := l.resolve(p)
	if err != nil {
		return err
	}
	if err := os.Remove(fp); err != nil {
		return fmt.Errorf("chirp: removing %s: %w", p, err)
	}
	return nil
}
