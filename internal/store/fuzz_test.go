package store

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"lobster/internal/seglog"
)

// framed returns the live segment seglog writes for recs.
func framed(f *testing.F, recs ...[]byte) []byte {
	dir := f.TempDir()
	l, err := seglog.Open(dir, suffix, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(livePath(dir))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzWALReplay feeds arbitrary bytes to Open as the live segment a
// crashed process left behind. Whatever they are, Open must not panic, and
// may fail only on a record that passed its checksum but does not decode.
// After a successful Open the store must accept a write that a second Open
// replays on top of the same state. seglog's FuzzReplay pins the framing
// itself: the clean prefix kept and the file cut back to it.
func FuzzWALReplay(f *testing.F) {
	good := framed(f, appendRecord(nil, "tasks", "1", []byte("done")), appendRecord(nil, "tasks", "2", []byte("running")))
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0xff
	oldDelete := appendRecord(nil, "tasks", "1", nil)
	oldDelete[0] = 2 // the delete op the WAL + snapshot layout could hold

	f.Add([]byte{})                                                                  // empty
	f.Add(good)                                                                      // clean
	f.Add(good[:len(good)-3])                                                        // torn tail
	f.Add(badCRC)                                                                    // bad CRC on the last record
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})                                // the largest length a frame can claim
	f.Add([]byte{0x04, 0, 0, 0})                                                     // 64 MiB claimed, no bytes behind it
	f.Add(append(append([]byte(nil), good...), 0, 0, 0))                             // torn header
	f.Add(append(append([]byte(nil), good...), framed(f, oldDelete)...))             // checksummed but undecodable
	f.Add(framed(f, []byte{opPut, 9, 0, 0, 0, 't'}, appendRecord(nil, "", "", nil))) // truncated field

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(livePath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			if !errors.Is(err, errRecord) {
				t.Fatalf("Open on a damaged log: %v", err)
			}
			return
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
