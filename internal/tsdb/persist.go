package tsdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Crash-safe persistence. Each sealed block becomes one length-prefixed
// record in a numbered segment file:
//
//	u32   record length (bytes that follow, incl. crc)
//	uvarint keyLen, key bytes   (series key: name \x00 k \x01 v ...)
//	uvarint sample count
//	u64   tFirst (ms), u64 tLast (ms)
//	uvarint payload length, payload bytes (Gorilla block)
//	u32   crc32 (IEEE) of everything after the length prefix
//
// Records are appended and fsynced on Flush; a torn tail (partial
// record after a crash) fails its length or crc check and replay stops
// there, exactly like the JSONL event log's torn-line rule. When a
// segment passes MaxSegBytes the writer moves to the next numbered file
// and emits a "tsdb_segment" marker into the shared event log so the
// monitor's replay sees where history rotated.

const segPrefix = "seg-"
const segSuffix = ".tsdb"

// SegmentEvent is the payload of a "tsdb_segment" event-log marker.
type SegmentEvent struct {
	Seq  int    `json:"seq"`
	Path string `json:"path"`
	Size int64  `json:"size"`
}

type segmentWriter struct {
	cfg     *Config
	dir     string
	seq     int
	f       *os.File
	w       *bufio.Writer
	written int64
	scratch []byte
	err     error
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix))
}

// openSegmentWriter continues after the highest existing segment.
func openSegmentWriter(cfg *Config, dir string, lastSeq int) (*segmentWriter, error) {
	sw := &segmentWriter{cfg: cfg, dir: dir, seq: lastSeq}
	if sw.seq == 0 {
		sw.seq = 1
	}
	f, err := os.OpenFile(segPath(dir, sw.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tsdb: segment: %w", err)
	}
	sw.f = f
	sw.w = bufio.NewWriterSize(f, 64<<10)
	if st, err := f.Stat(); err == nil {
		sw.written = st.Size()
	}
	return sw, nil
}

// writeBlock appends one sealed block record, rotating first if the
// live segment is full. Errors poison the writer (checked on flush) —
// the in-memory store stays correct regardless.
func (sw *segmentWriter) writeBlock(key string, n int, tFirst, tLast int64, payload []byte) {
	if sw.err != nil {
		return
	}
	if sw.written >= sw.cfg.MaxSegBytes {
		sw.rotate()
		if sw.err != nil {
			return
		}
	}
	b := sw.scratch[:0]
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.BigEndian.AppendUint64(b, uint64(tFirst))
	b = binary.BigEndian.AppendUint64(b, uint64(tLast))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	sw.scratch = b

	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(b)))
	if _, err := sw.w.Write(lenBuf[:]); err != nil {
		sw.err = err
		return
	}
	if _, err := sw.w.Write(b); err != nil {
		sw.err = err
		return
	}
	sw.written += int64(len(b)) + 4
}

// rotate closes the live segment and opens the next one, emitting the
// event-log marker.
func (sw *segmentWriter) rotate() {
	if err := sw.w.Flush(); err != nil {
		sw.err = err
		return
	}
	size := sw.written
	sw.f.Close()
	sw.cfg.Log.Emit("tsdb_segment", SegmentEvent{Seq: sw.seq, Path: segPath(sw.dir, sw.seq), Size: size})
	sw.seq++
	f, err := os.OpenFile(segPath(sw.dir, sw.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		sw.err = fmt.Errorf("tsdb: segment rotate: %w", err)
		return
	}
	sw.f = f
	sw.w = bufio.NewWriterSize(f, 64<<10)
	sw.written = 0
}

func (sw *segmentWriter) flush() error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.w.Flush(); err != nil {
		sw.err = err
		return err
	}
	if err := sw.f.Sync(); err != nil {
		sw.err = err
		return err
	}
	return nil
}

func (sw *segmentWriter) close() error {
	err := sw.flush()
	if cerr := sw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open creates a persistent store in cfg.Dir, replaying any existing
// segments so a restarted hub continues its history. A torn trailing
// record in the newest segment (crash mid-write) is dropped and the
// tear truncated away before the writer reopens the file — otherwise
// fresh records would land after the torn bytes and vanish on the next
// replay. Anything malformed in an older, fully-rotated segment is an
// error: that is mid-history corruption, not a crash artifact.
func Open(cfg Config) (*Store, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, errors.New("tsdb: Open needs Config.Dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	s := New(cfg)
	seqs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		final := i == len(seqs)-1
		path := segPath(cfg.Dir, seq)
		valid, err := s.loadSegment(path, final)
		if err != nil {
			return nil, err
		}
		if !final {
			continue
		}
		if st, err := os.Stat(path); err == nil && st.Size() > valid {
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("tsdb: truncate torn tail: %w", err)
			}
		}
	}
	last := 0
	if len(seqs) > 0 {
		last = seqs[len(seqs)-1]
	}
	sw, err := openSegmentWriter(&s.cfg, cfg.Dir, last)
	if err != nil {
		return nil, err
	}
	s.seg = sw
	return s, nil
}

// listSegments returns segment sequence numbers in order.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.Atoi(name[len(segPrefix) : len(name)-len(segSuffix)])
		if err != nil || seq <= 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}

// loadSegment replays one segment file into the store as sealed blocks
// and returns the byte offset just past the last valid record. In the
// final (still-appendable) segment a torn record stops replay at that
// offset and the caller truncates the tear; older segments were fully
// flushed before rotation, so a bad record there is mid-history
// corruption and an error, never a silent gap.
func (s *Store) loadSegment(path string, final bool) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("tsdb: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("tsdb: %w", err)
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var lenBuf [4]byte
	var valid int64
	torn := func(reason string) (int64, error) {
		if final {
			return valid, nil
		}
		return valid, fmt.Errorf("tsdb: %s: %s at offset %d (mid-history corruption)", path, reason, valid)
	}
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			if err == io.EOF {
				return valid, nil // clean end
			}
			return torn("torn length prefix")
		}
		recLen := binary.BigEndian.Uint32(lenBuf[:])
		if recLen < 4 || recLen > 64<<20 {
			return torn("implausible record length")
		}
		// A torn header's claimed length buys no memory: the body must
		// already lie in the file.
		if int64(recLen) > st.Size()-valid-4 {
			return torn("torn record body")
		}
		rec := make([]byte, recLen)
		if _, err := io.ReadFull(r, rec); err != nil {
			return torn("torn record body")
		}
		body := rec[:len(rec)-4]
		want := binary.BigEndian.Uint32(rec[len(rec)-4:])
		if crc32.ChecksumIEEE(body) != want {
			return torn("crc mismatch")
		}
		if err := s.loadRecord(body); err != nil {
			return valid, fmt.Errorf("tsdb: %s: %w", path, err)
		}
		valid += 4 + int64(recLen)
	}
}

// loadRecord decodes one record body and installs the sealed block.
// Length fields are compared without addition — a huge uvarint must
// fail the bound check, not wrap it and panic the slice below (the
// crc gates accidents, not all corruption).
func (s *Store) loadRecord(body []byte) error {
	keyLen, n := binary.Uvarint(body)
	if n <= 0 || keyLen > uint64(len(body)-n) {
		return errors.New("bad record key")
	}
	body = body[n:]
	key := string(body[:keyLen])
	body = body[keyLen:]
	count, n := binary.Uvarint(body)
	if n <= 0 || len(body)-n < 16 {
		return errors.New("bad record header")
	}
	body = body[n:]
	tFirst := int64(binary.BigEndian.Uint64(body))
	tLast := int64(binary.BigEndian.Uint64(body[8:]))
	body = body[16:]
	payLen, n := binary.Uvarint(body)
	if n <= 0 || payLen > uint64(len(body)-n) {
		return errors.New("bad record payload")
	}
	payload := body[n : uint64(n)+payLen]
	// Samples cost >= 2 bits each after the 16-byte first, so a count
	// beyond ~4x the payload bytes cannot be real — reject it before it
	// inflates the store's pre-sized decode buffers.
	if count == 0 || count > payLen*4+1 {
		return errors.New("bad record count")
	}

	name, labels, err := parseSeriesKey(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	se := s.series[key]
	if se == nil {
		se = s.newSeries(name, labels, key)
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	se.sealed = append(se.sealed, sealedBlock{buf: buf, n: int(count), tFirst: tFirst, tLast: tLast})
	se.samples += int64(count)
	s.samples += int64(count)
	if tFirst < s.minMs {
		s.minMs = tFirst
	}
	if tLast > s.maxMs {
		s.maxMs = tLast
	}
	s.mu.Unlock()
	return nil
}

// parseSeriesKey splits "name \x00 k \x01 v \x00 k \x01 v ..." back
// into its parts.
func parseSeriesKey(key string) (name string, labels map[string]string, err error) {
	i := strings.IndexByte(key, 0)
	if i < 0 {
		return key, nil, nil
	}
	name = key[:i]
	labels = map[string]string{}
	rest := key[i+1:]
	for len(rest) > 0 {
		j := strings.IndexByte(rest, 1)
		if j < 0 {
			return "", nil, errors.New("bad series key")
		}
		k := rest[:j]
		rest = rest[j+1:]
		var v string
		if e := strings.IndexByte(rest, 0); e >= 0 {
			v, rest = rest[:e], rest[e+1:]
		} else {
			v, rest = rest, ""
		}
		labels[k] = v
	}
	return name, labels, nil
}
