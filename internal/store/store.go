// Package store implements the embedded persistent database used as the
// Lobster DB: the durable record of the tasklet→task mapping, task states,
// and monitoring records (the paper uses SQLite for this role).
//
// The design is a write-ahead log of (table, key, value) mutations with
// CRC-protected framing plus periodic snapshot compaction. State is fully
// recovered by replaying the snapshot and then the log; a torn final record
// (crash mid-write) is detected by its checksum and discarded, matching the
// paper's observation that "system state is quickly and automatically
// recovered if the scheduler node should crash and reboot."
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

const (
	walName      = "lobster.wal"
	snapName     = "lobster.snap"
	snapTempName = "lobster.snap.tmp"

	opPut = byte(1)
	// opDelete is no longer written, but replay still applies it, so a
	// database directory whose log holds deletes loads unchanged.
	opDelete = byte(2)
)

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("store: key not found")

// DB is an embedded key-value store with named tables. It is safe for
// concurrent use.
type DB struct {
	mu     sync.RWMutex
	dir    string
	tables map[string]map[string][]byte
	wal    *os.File
	walBuf *bufio.Writer
	walLen int64 // bytes appended since last compaction
	closed bool
	// SyncEvery forces an fsync after every write when true (slower, used by
	// durability tests); otherwise data is flushed on Close/Compact.
	SyncEvery bool
}

// Open opens (or creates) a database in dir.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	db := &DB{dir: dir, tables: make(map[string]map[string][]byte)}
	if err := db.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := db.replayWAL(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal: %w", err)
	}
	db.wal = f
	db.walBuf = bufio.NewWriter(f)
	return db, nil
}

func (db *DB) loadSnapshot() error {
	f, err := os.Open(filepath.Join(db.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		op, table, key, value, err := readRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: corrupt snapshot: %w", err)
		}
		if op != opPut {
			return fmt.Errorf("store: unexpected op %d in snapshot", op)
		}
		db.applyPut(table, key, value)
	}
}

func (db *DB) replayWAL() error {
	f, err := os.Open(filepath.Join(db.dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var replayed int64
	for {
		op, table, key, value, err := readRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail from a crash mid-append: keep what replayed cleanly.
			break
		}
		switch op {
		case opPut:
			db.applyPut(table, key, value)
		case opDelete:
			db.applyDelete(table, key)
		}
		replayed += recordSize(table, key, value)
	}
	db.walLen = replayed
	// Truncate any torn tail so fresh appends start at a clean boundary.
	return os.Truncate(filepath.Join(db.dir, walName), replayed)
}

func (db *DB) applyPut(table, key string, value []byte) {
	t := db.tables[table]
	if t == nil {
		t = make(map[string][]byte)
		db.tables[table] = t
	}
	t[key] = value
}

func (db *DB) applyDelete(table, key string) {
	if t := db.tables[table]; t != nil {
		delete(t, key)
		if len(t) == 0 {
			delete(db.tables, table)
		}
	}
}

// Record framing: crc32(payload) | payloadLen | payload, where payload is
// op | tableLen | table | keyLen | key | valueLen | value. All integers are
// little-endian uint32.
func writeRecord(w io.Writer, op byte, table, key string, value []byte) error {
	payload := make([]byte, 0, 1+4+len(table)+4+len(key)+4+len(value))
	payload = append(payload, op)
	payload = appendLenPrefixed(payload, []byte(table))
	payload = appendLenPrefixed(payload, []byte(key))
	payload = appendLenPrefixed(payload, value)
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(head[4:], uint32(len(payload)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func appendLenPrefixed(b, data []byte) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(data)))
	b = append(b, l[:]...)
	return append(b, data...)
}

func recordSize(table, key string, value []byte) int64 {
	return int64(8 + 1 + 4 + len(table) + 4 + len(key) + 4 + len(value))
}

func readRecord(r io.Reader) (op byte, table, key string, value []byte, err error) {
	var head [8]byte
	if _, err = io.ReadFull(r, head[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return
	}
	wantCRC := binary.LittleEndian.Uint32(head[0:])
	n := binary.LittleEndian.Uint32(head[4:])
	if n > 1<<30 {
		err = fmt.Errorf("store: implausible record length %d", n)
		return
	}
	// Grow with the bytes that are really there: a torn header must not
	// turn its claimed length into an allocation.
	var buf bytes.Buffer
	if _, err = io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return
	}
	payload := buf.Bytes()
	if crc32.ChecksumIEEE(payload) != wantCRC {
		err = errors.New("store: record checksum mismatch")
		return
	}
	if len(payload) < 1 {
		err = errors.New("store: empty record")
		return
	}
	op = payload[0]
	rest := payload[1:]
	var tb, kb []byte
	if tb, rest, err = readLenPrefixed(rest); err != nil {
		return
	}
	if kb, rest, err = readLenPrefixed(rest); err != nil {
		return
	}
	if value, _, err = readLenPrefixed(rest); err != nil {
		return
	}
	table, key = string(tb), string(kb)
	return
}

func readLenPrefixed(b []byte) (data, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, errors.New("store: truncated length prefix")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, errors.New("store: truncated field")
	}
	return b[:n], b[n:], nil
}

// Put stores value under (table, key).
func (db *DB) Put(table, key string, value []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("store: use of closed DB")
	}
	if err := writeRecord(db.walBuf, opPut, table, key, value); err != nil {
		return fmt.Errorf("store: appending wal: %w", err)
	}
	db.walLen += recordSize(table, key, value)
	if err := db.maybeSync(); err != nil {
		return err
	}
	db.applyPut(table, key, append([]byte(nil), value...))
	return nil
}

func (db *DB) maybeSync() error {
	if !db.SyncEvery {
		return nil
	}
	if err := db.walBuf.Flush(); err != nil {
		return err
	}
	return db.wal.Sync()
}

// Get returns the value stored under (table, key), or ErrNotFound.
func (db *DB) Get(table, key string) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[table]
	if t == nil {
		return nil, ErrNotFound
	}
	v, ok := t[key]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// PutJSON stores v as JSON under (table, key).
func (db *DB) PutJSON(table, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding %s/%s: %w", table, key, err)
	}
	return db.Put(table, key, data)
}

// GetJSON decodes the value at (table, key) into out.
func (db *DB) GetJSON(table, key string, out any) error {
	data, err := db.Get(table, key)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("store: decoding %s/%s: %w", table, key, err)
	}
	return nil
}

// WALSize returns the number of bytes appended to the log since the last
// compaction, a trigger for Compact.
func (db *DB) WALSize() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walLen
}

// Compact writes the full current state to a fresh snapshot and truncates
// the WAL. The snapshot is written to a temp file and renamed, so a crash at
// any point leaves either the old or the new snapshot intact.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("store: use of closed DB")
	}
	if err := db.walBuf.Flush(); err != nil {
		return err
	}
	tmp := filepath.Join(db.dir, snapTempName)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	tables := make([]string, 0, len(db.tables))
	for n := range db.tables {
		tables = append(tables, n)
	}
	sort.Strings(tables)
	for _, tn := range tables {
		t := db.tables[tn]
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := writeRecord(w, opPut, tn, k, t[k]); err != nil {
				f.Close()
				return fmt.Errorf("store: writing snapshot: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, snapName)); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	// Reset the WAL now that the snapshot holds everything.
	if err := db.wal.Close(); err != nil {
		return err
	}
	nf, err := os.OpenFile(filepath.Join(db.dir, walName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: resetting wal: %w", err)
	}
	db.wal = nf
	db.walBuf = bufio.NewWriter(nf)
	db.walLen = 0
	return nil
}

// Close flushes and closes the database. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if err := db.walBuf.Flush(); err != nil {
		db.wal.Close()
		return err
	}
	if err := db.wal.Sync(); err != nil {
		db.wal.Close()
		return err
	}
	return db.wal.Close()
}
