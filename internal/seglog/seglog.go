// Package seglog is the crash-safe append log under the Lobster DB
// (internal/store). A log is a
// directory of numbered segment files, seg-NNNNNN<suffix>, each a run of
// CRC-framed records:
//
//	u32 BE  length of what follows (body + crc)
//	        body
//	u32 BE  CRC-32 (IEEE) of body
//
// Open replays every segment oldest first. The newest segment is the live
// one, the only file a crash can tear: a bad length or CRC there ends replay
// and the file is cut back to its clean prefix, so fresh appends never land
// behind torn bytes. The same damage in an older, sealed segment is
// mid-history corruption and an error. A record that passes its CRC but
// that the owner's decoder rejects is an error in any segment: it was
// written whole, so it is no crash artifact, and cutting it would destroy
// everything after it.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const prefix = "seg-"

// segBytes is the size at which Append seals the live segment. No program
// varies it; tests shrink it.
var segBytes int64 = 4 << 20

// Log is an open segment log. Its owner serialises calls.
type Log struct {
	dir, suffix string
	seq         int      // the live segment's number
	f           *os.File // nil once closed
	w           *bufio.Writer
	live        int64   // bytes in the live segment
	size        int64   // bytes appended since Open or the last Compact
	err         error   // first error; every later call returns it
	word        [4]byte // a frame's length or CRC on its way to w
}

var errClosed = errors.New("seglog: use of closed log")

// Open replays the segments in dir (created if needed) through replay,
// oldest first, and opens the newest for appending. rec is valid only until
// replay returns. A replay error ends Open with that error.
func Open(dir, suffix string, replay func(rec []byte) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	seqs, err := list(dir, suffix)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, suffix: suffix, seq: 1}
	var clean int64
	for i, seq := range seqs {
		l.seq = seq
		if clean, err = l.load(i == len(seqs)-1, replay); err != nil {
			return nil, err
		}
	}
	if err := l.openLive(clean); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) path(seq int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%06d%s", prefix, seq, l.suffix))
}

// list returns dir's segment numbers in order.
func list(dir, suffix string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		if seq, err := strconv.Atoi(name[len(prefix) : len(name)-len(suffix)]); err == nil && seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// load replays segment l.seq and returns the length of its clean prefix.
// A frame's length is checked against the bytes really behind it, so a
// torn header's claim buys no memory.
func (l *Log) load(live bool, replay func([]byte) error) (int64, error) {
	path := l.path(l.seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("seglog: %w", err)
	}
	for off := 0; off < len(data); {
		rest := data[off:]
		n := 0
		if len(rest) >= 4 {
			n = int(binary.BigEndian.Uint32(rest))
		}
		if n < 4 || n > len(rest)-4 || crc32.ChecksumIEEE(rest[4:n]) != binary.BigEndian.Uint32(rest[n:]) {
			if live {
				return int64(off), nil
			}
			return 0, fmt.Errorf("seglog: %s: bad length or crc at offset %d (mid-history corruption)", path, off)
		}
		if err := replay(rest[4:n]); err != nil {
			return 0, fmt.Errorf("seglog: %s: record at offset %d: %w", path, off, err)
		}
		off += 4 + n
	}
	return int64(len(data)), nil
}

// openLive opens segment l.seq for appending, first cutting it back to
// size: the clean prefix replay kept.
func (l *Log) openLive(size int64) error {
	f, err := os.OpenFile(l.path(l.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return fmt.Errorf("seglog: cutting torn tail: %w", err)
	}
	l.f, l.w, l.live = f, bufio.NewWriter(f), size
	return nil
}

// fail records the log's first error and returns it.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Append writes one record, first sealing the live segment when it has
// reached the size limit. Records sit in a 4 KiB buffer until it fills or
// Flush, Sync, Compact or Close.
func (l *Log) Append(rec []byte) error {
	if l.err != nil {
		return l.err
	}
	if l.live >= segBytes {
		if err := l.closeLive(); err != nil {
			return l.fail(err)
		}
		l.seq++
		if err := l.openLive(0); err != nil {
			return l.fail(err)
		}
	}
	return l.write(rec)
}

// write frames rec into the live segment. A bufio.Writer keeps its first
// error, so checking the last of the three writes checks all of them.
func (l *Log) write(rec []byte) error {
	n := len(rec) + 4
	binary.BigEndian.PutUint32(l.word[:], uint32(n))
	l.w.Write(l.word[:])
	l.w.Write(rec)
	binary.BigEndian.PutUint32(l.word[:], crc32.ChecksumIEEE(rec))
	if _, err := l.w.Write(l.word[:]); err != nil {
		return l.fail(fmt.Errorf("seglog: append: %w", err))
	}
	l.live += 4 + int64(n)
	l.size += 4 + int64(n)
	return nil
}

// Size returns the bytes appended since Open or the last Compact.
func (l *Log) Size() int64 { return l.size }

// Flush hands every appended record to the kernel, without syncing it: a
// killed process loses none of them, a crashed machine may.
func (l *Log) Flush() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(fmt.Errorf("seglog: flush: %w", err))
	}
	return nil
}

// Sync makes every appended record durable.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("seglog: sync: %w", err))
	}
	return nil
}

// closeLive syncs and closes the live segment.
func (l *Log) closeLive() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("seglog: close: %w", cerr)
	}
	l.f = nil
	return err
}

// Close syncs and closes the log. Every later call but Close returns an
// error; a second Close returns the log's first failure, if any.
func (l *Log) Close() error {
	if l.f == nil {
		if l.err == errClosed {
			return nil
		}
		return l.err
	}
	err := l.closeLive()
	l.fail(errClosed)
	return err
}

// Compact replaces the log with the records write appends through add: the
// owner's full state. They go into a fresh segment, which is synced, and
// the directory with it, before any older segment is removed. A crash at
// any point leaves the old segments, the new one, or both, and because the
// new segment restates everything the old ones hold, replaying any of those
// rebuilds the same state.
func (l *Log) Compact(write func(add func(rec []byte) error) error) error {
	if l.err != nil {
		return l.err
	}
	if err := l.closeLive(); err != nil {
		return l.fail(err)
	}
	old := l.seq
	l.seq++
	if err := l.openLive(0); err != nil {
		return l.fail(err)
	}
	if err := write(l.write); err != nil {
		return l.fail(err)
	}
	if err := l.Sync(); err != nil {
		return err
	}
	d, err := os.Open(l.dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return l.fail(fmt.Errorf("seglog: syncing %s: %w", l.dir, err))
	}
	seqs, err := list(l.dir, l.suffix)
	if err != nil {
		return l.fail(err)
	}
	for _, seq := range seqs {
		if seq > old {
			break
		}
		if err := os.Remove(l.path(seq)); err != nil {
			return l.fail(fmt.Errorf("seglog: removing compacted segment: %w", err))
		}
	}
	l.size = 0
	return nil
}
