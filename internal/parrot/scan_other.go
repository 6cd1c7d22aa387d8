//go:build !linux

package parrot

import (
	"io"
	"os"

	"lobster/internal/bufpool"
)

// The portable twin of scan_linux.go: the same scan through os.Open and
// os.Stat, which copy the path and allocate per call.

// scanPath reads the cached object at path (NUL-terminated) end to end
// through a pooled chunk, as a job touching a release file does, and
// returns its size: a hit that keeps no bytes allocates no buffer.
func (i *Instance) scanPath(path []byte) (size int64, ok bool) {
	f, err := os.Open(string(path[:len(path)-1]))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	for {
		n, err := f.Read(*buf)
		size += int64(n)
		if err == io.EOF {
			i.stats.Hits++
			return size, true
		}
		if err != nil {
			return 0, false
		}
	}
}

// onDisk reports whether the object at path (NUL-terminated) exists.
func onDisk(path []byte) bool {
	_, err := os.Stat(string(path[:len(path)-1]))
	return err == nil
}
