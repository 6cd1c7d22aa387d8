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
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"

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
	// Append appends data to the file at path, creating it if needed.
	Append(path string, data []byte) error
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
// can absorb a payload as a stream of exactly size bytes. A reader
// error must leave the target unmodified (spool-then-commit), because
// the bytes come straight off a network peer that may die mid-payload.
type StreamWriterFS interface {
	// WriteFileFrom creates or replaces the file at path from r.
	WriteFileFrom(path string, r io.Reader, size int64) error
	// AppendFileFrom appends size bytes from r to the file at path.
	AppendFileFrom(path string, r io.Reader, size int64) error
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

// LocalFS exports a directory of the local file system.
type LocalFS struct {
	root string
	mu   sync.RWMutex
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
	return &LocalFS{root: abs}, nil
}

// Root returns the exported directory.
func (l *LocalFS) Root() string { return l.root }

func (l *LocalFS) resolve(p string) (string, error) {
	cleaned, err := CleanPath(p)
	if err != nil {
		return "", err
	}
	if cleaned == "/" || l.root == string(filepath.Separator) {
		return filepath.Join(l.root, filepath.FromSlash(cleaned)), nil
	}
	// Both halves are already clean: one concatenation, not a Join.
	return l.root + filepath.FromSlash(cleaned), nil
}

// ReadFile implements FileSystem.
func (l *LocalFS) ReadFile(p string) ([]byte, error) {
	fp, err := l.resolve(p)
	if err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	data, err := os.ReadFile(fp)
	if err != nil {
		return nil, fmt.Errorf("chirp: reading %s: %w", p, err)
	}
	return data, nil
}

// WriteFile implements FileSystem.
func (l *LocalFS) WriteFile(p string, data []byte) error {
	fp, err := l.resolve(p)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
		return fmt.Errorf("chirp: creating parents of %s: %w", p, err)
	}
	if err := os.WriteFile(fp, data, 0o644); err != nil {
		return fmt.Errorf("chirp: writing %s: %w", p, err)
	}
	return nil
}

// Append implements FileSystem.
func (l *LocalFS) Append(p string, data []byte) error {
	fp, err := l.resolve(p)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(fp, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("chirp: appending %s: %w", p, err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("chirp: appending %s: %w", p, err)
	}
	return nil
}

// Stat implements FileSystem.
func (l *LocalFS) Stat(p string) (FileInfo, error) {
	fp, err := l.resolve(p)
	if err != nil {
		return FileInfo{}, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	st, err := os.Stat(fp)
	if err != nil {
		return FileInfo{}, fmt.Errorf("chirp: stat %s: %w", p, err)
	}
	return FileInfo{Name: st.Name(), Size: st.Size(), IsDir: st.IsDir()}, nil
}

// List implements FileSystem.
func (l *LocalFS) List(p string) ([]FileInfo, error) {
	fp, err := l.resolve(p)
	if err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	entries, err := os.ReadDir(fp)
	if err != nil {
		return nil, fmt.Errorf("chirp: listing %s: %w", p, err)
	}
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, FileInfo{Name: e.Name(), Size: info.Size(), IsDir: e.IsDir()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// OpenRead implements StreamReaderFS. The open and stat happen under
// the read lock; the returned handle streams after the lock is gone,
// which is safe for chirp's write-once workload (task outputs land
// under unique names and are never rewritten in place).
func (l *LocalFS) OpenRead(p string) (io.ReadCloser, int64, error) {
	fp, err := l.resolve(p)
	if err != nil {
		return nil, 0, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
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

// WriteFileFrom implements StreamWriterFS: the payload spools into a
// temp file in the target directory (no lock held while the bytes
// arrive off the network), then a rename commits it under the write
// lock. A reader error discards the spool and leaves the target alone.
func (l *LocalFS) WriteFileFrom(p string, r io.Reader, size int64) error {
	fp, tmp, err := l.spool(p, r, size)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.Rename(tmp, fp); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("chirp: writing %s: %w", p, err)
	}
	return nil
}

// AppendFileFrom implements StreamWriterFS. Appends cannot be committed
// by rename, so the spool is copied onto the target under the write
// lock — a disk-to-disk copy that never waits on the network.
func (l *LocalFS) AppendFileFrom(p string, r io.Reader, size int64) error {
	fp, tmp, err := l.spool(p, r, size)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	src, err := os.Open(tmp)
	if err != nil {
		return fmt.Errorf("chirp: appending %s: %w", p, err)
	}
	defer src.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	dst, err := os.OpenFile(fp, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("chirp: appending %s: %w", p, err)
	}
	if _, err := bufpool.CopyN(dst, src, size); err != nil {
		dst.Close()
		return fmt.Errorf("chirp: appending %s: %w", p, err)
	}
	if err := dst.Close(); err != nil {
		return fmt.Errorf("chirp: appending %s: %w", p, err)
	}
	return nil
}

// tailWriter lets a payload source deliver the bytes of a spool copy
// in one call instead of chunked Reads — the chirp server's wire
// reader uses it to splice the unbuffered tail of a payload straight
// from the socket into the spool file, skipping user space. The
// implementation must deliver exactly n bytes or return an error.
type tailWriter interface {
	WriteTailTo(w io.Writer, n int64) (int64, error)
}

// spool drains exactly size bytes of r into a fresh temp file next to
// the resolved target path. It returns the resolved target and the
// temp path; on any error the temp file is already gone.
func (l *LocalFS) spool(p string, r io.Reader, size int64) (fp, tmp string, err error) {
	fp, err = l.resolve(p)
	if err != nil {
		return "", "", err
	}
	// Create first, make the parents only when they turn out to be
	// missing: every put after a directory's first finds it there.
	dir := filepath.Dir(fp)
	f, err := os.CreateTemp(dir, ".chirp-spool-*")
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", "", fmt.Errorf("chirp: creating parents of %s: %w", p, err)
		}
		f, err = os.CreateTemp(dir, ".chirp-spool-*")
	}
	if err != nil {
		return "", "", fmt.Errorf("chirp: spooling %s: %w", p, err)
	}
	tmp = f.Name()
	if tw, ok := r.(tailWriter); ok {
		_, err = tw.WriteTailTo(f, size)
	} else {
		_, err = bufpool.CopyN(f, r, size)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return "", "", fmt.Errorf("chirp: spooling %s: %w", p, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", "", fmt.Errorf("chirp: spooling %s: %w", p, err)
	}
	return fp, tmp, nil
}

// Remove implements FileSystem.
func (l *LocalFS) Remove(p string) error {
	fp, err := l.resolve(p)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.Remove(fp); err != nil {
		return fmt.Errorf("chirp: removing %s: %w", p, err)
	}
	return nil
}
