package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the WAL reader as the log a
// crashed process left behind. Whatever they are, Open must not panic or
// fail, must keep exactly the records of the longest clean prefix, must
// cut the file back to that prefix, and the store must then accept a
// write that a second Open replays on top of the same state.
func FuzzWALReplay(f *testing.F) {
	var clean bytes.Buffer
	writeRecord(&clean, opPut, "tasks", "1", []byte("done"))
	writeRecord(&clean, opPut, "tasks", "2", []byte("running"))
	writeRecord(&clean, opDelete, "tasks", "1", nil)
	good := clean.Bytes()
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0xff

	f.Add([]byte{})                                                              // empty
	f.Add(good)                                                                  // clean
	f.Add(good[:len(good)-3])                                                    // torn tail
	f.Add(badCRC)                                                                // bad CRC on the last record
	f.Add(binary.LittleEndian.AppendUint32([]byte{0, 0, 0, 0}, 1<<30+1))         // oversized length prefix
	f.Add(binary.LittleEndian.AppendUint32([]byte{0, 0, 0, 0}, 1<<30))           // largest length the reader accepts, no bytes behind it
	f.Add(append(append([]byte(nil), good...), 0xde, 0xad, 0xbe, 0xef, 4, 0, 0)) // torn header

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		wal := filepath.Join(dir, walName)
		if err := os.WriteFile(wal, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			t.Fatalf("Open on a damaged WAL: %v", err)
		}
		kept := db.WALSize()
		if kept < 0 || kept > int64(len(data)) {
			t.Fatalf("replayed %d bytes of a %d-byte log", kept, len(data))
		}
		if st, err := os.Stat(wal); err != nil || st.Size() != kept {
			t.Fatalf("log not cut back to its clean prefix: size %v, want %d (%v)", st.Size(), kept, err)
		}
		before := snapshotOf(db)
		if err := db.Put("fuzz", "probe", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer again.Close()
		if v, err := again.Get("fuzz", "probe"); err != nil || string(v) != "x" {
			t.Fatalf("write after replay lost: %q, %v", v, err)
		}
		if before["fuzz"] == nil {
			before["fuzz"] = map[string]string{}
		}
		before["fuzz"]["probe"] = "x"
		if after := snapshotOf(again); !reflect.DeepEqual(before, after) {
			t.Fatalf("state changed between replays:\n first %v\nsecond %v", before, after)
		}
	})
}

// snapshotOf copies every table out of db.
func snapshotOf(db *DB) map[string]map[string]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := map[string]map[string]string{}
	for table, t := range db.tables {
		rows := map[string]string{}
		for key, value := range t {
			rows[key] = string(value)
		}
		out[table] = rows
	}
	return out
}
