// Package store implements the embedded persistent database used as the
// Lobster DB: the durable record of the tasklet→task mapping, task states,
// and monitoring records (the paper uses SQLite for this role).
//
// Every Put appends one (table, key, value) record to a seglog log, and
// Compact restates the whole state as one fresh segment. State is fully
// recovered by replaying the segments; a torn final record (crash
// mid-write) fails its checksum and is cut away, matching the paper's
// observation that "system state is quickly and automatically recovered if
// the scheduler node should crash and reboot."
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"lobster/internal/seglog"
)

const (
	suffix = ".wal"
	opPut  = byte(1)
)

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("store: key not found")

// errRecord marks a record that passed its checksum but does not decode.
var errRecord = errors.New("store: undecodable record")

// DB is an embedded key-value store with named tables. It is safe for
// concurrent use.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]map[string][]byte
	log     *seglog.Log
	scratch []byte // Put's record encoding, reused
}

// Open opens (or creates) a database in dir. A directory in the layout
// that predates segments is refused rather than read as empty, so a
// finished workflow is not silently run again.
func Open(dir string) (*DB, error) {
	for _, old := range []string{"lobster.wal", "lobster.snap"} {
		if _, err := os.Stat(filepath.Join(dir, old)); err == nil {
			return nil, fmt.Errorf("store: %s holds %s, a database in the old WAL + snapshot layout, which this version does not read", dir, old)
		}
	}
	db := &DB{tables: make(map[string]map[string][]byte)}
	log, err := seglog.Open(dir, suffix, db.replay)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	db.log = log
	return db, nil
}

// replay applies one logged record: table, key and value.
func (db *DB) replay(rec []byte) error {
	if len(rec) == 0 || rec[0] != opPut {
		return fmt.Errorf("%w: not a put", errRecord)
	}
	var f [3][]byte
	rest := rec[1:]
	for i := range f {
		if len(rest) < 4 || uint32(len(rest)-4) < binary.LittleEndian.Uint32(rest) {
			return fmt.Errorf("%w: truncated field", errRecord)
		}
		n := 4 + binary.LittleEndian.Uint32(rest)
		f[i], rest = rest[4:n], rest[n:]
	}
	db.apply(string(f[0]), string(f[1]), append([]byte(nil), f[2]...))
	return nil
}

func (db *DB) apply(table, key string, value []byte) {
	t := db.tables[table]
	if t == nil {
		t = make(map[string][]byte)
		db.tables[table] = t
	}
	t[key] = value
}

// Record payload: op | tableLen | table | keyLen | key | valueLen | value,
// lengths little-endian uint32.
func appendRecord(b []byte, table, key string, value []byte) []byte {
	b = append(b, opPut)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(table)))
	b = append(b, table...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(value)))
	return append(b, value...)
}

// Put stores value under (table, key).
func (db *DB) Put(table, key string, value []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.scratch = appendRecord(db.scratch[:0], table, key, value)
	if err := db.log.Append(db.scratch); err != nil {
		return fmt.Errorf("store: appending: %w", err)
	}
	db.apply(table, key, append([]byte(nil), value...))
	return nil
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

// WALSize returns the number of bytes appended to the log since Open or
// the last compaction, a trigger for Compact.
func (db *DB) WALSize() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.log.Size()
}

// Compact rewrites the full current state, tables then keys in sorted
// order, as one fresh segment and drops the segments it replaces.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	tables := make([]string, 0, len(db.tables))
	for n := range db.tables {
		tables = append(tables, n)
	}
	sort.Strings(tables)
	err := db.log.Compact(func(add func([]byte) error) error {
		for _, tn := range tables {
			t := db.tables[tn]
			keys := make([]string, 0, len(t))
			for k := range t {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				db.scratch = appendRecord(db.scratch[:0], tn, k, t[k])
				if err := add(db.scratch); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	return nil
}

// Close flushes and closes the database. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.log.Close()
}
