package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"lobster/internal/seglog"
)

func openTemp(t *testing.T) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db, dir
}

// livePath is the segment a fresh database appends to.
func livePath(dir string) string { return filepath.Join(dir, "seg-000001"+suffix) }

// TestPutGetDelete reads back a put; a missing key is ErrNotFound.
func TestPutGetDelete(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	if err := db.Put("tasks", "t1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get("tasks", "t1")
	if err != nil || string(v) != "hello" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if _, err := db.Get("tasks", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

// TestOpenRefusesOldLayout: a directory written in the WAL + snapshot
// layout is refused by name, not opened as an empty database.
func TestOpenRefusesOldLayout(t *testing.T) {
	for _, name := range []string{"lobster.wal", "lobster.snap"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err == nil {
			db.Close()
			t.Errorf("%s: old layout opened", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error does not name the file: %v", name, err)
		}
	}
}

// TestWALSizeCountsFrames pins the log's cost: a fresh database is one
// file, and a Put grows WALSize by its 8-byte frame, 13 bytes of op and
// lengths, and the table, key and value.
func TestWALSizeCountsFrames(t *testing.T) {
	db, dir := openTemp(t)
	defer db.Close()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("fresh database files: %v, %v", ents, err)
	}
	for _, r := range []struct{ table, key, value string }{{"t", "k", ""}, {"wf:x:tasklets", "0000000001", `{"state":3}`}} {
		before := db.WALSize()
		if err := db.Put(r.table, r.key, []byte(r.value)); err != nil {
			t.Fatal(err)
		}
		if got, want := db.WALSize()-before, int64(8+13+len(r.table)+len(r.key)+len(r.value)); got != want {
			t.Errorf("Put(%q, %q, %q) grew WALSize by %d, want %d", r.table, r.key, r.value, got, want)
		}
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	db.Put("t", "k", []byte("abc"))
	v, _ := db.Get("t", "k")
	v[0] = 'X'
	v2, _ := db.Get("t", "k")
	if string(v2) != "abc" {
		t.Fatalf("internal state mutated: %q", v2)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put("tasks", fmt.Sprintf("t%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := len(snapshotOf(db2)["tasks"]); n != 100 {
		t.Fatalf("count after reopen = %d", n)
	}
	v, err := db2.Get("tasks", "t042")
	if err != nil || string(v) != "v42" {
		t.Fatalf("t042 = %q, %v", v, err)
	}
}

func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	for i := 0; i < 50; i++ {
		db.Put("a", fmt.Sprintf("k%d", i), []byte("x"))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.WALSize() != 0 {
		t.Errorf("wal size after compact = %d", db.WALSize())
	}
	// More writes after compaction land in the fresh WAL.
	db.Put("a", "post", []byte("y"))
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := len(snapshotOf(db2)["a"]); n != 51 {
		t.Fatalf("count = %d, want 51", n)
	}
	if v, _ := db2.Get("a", "post"); string(v) != "y" {
		t.Error("post-compaction write lost")
	}
}

func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	db.Put("t", "good", []byte("value"))
	db.Close()

	// Append garbage simulating a crash mid-record.
	f, err := os.OpenFile(livePath(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	if v, err := db2.Get("t", "good"); err != nil || string(v) != "value" {
		t.Fatalf("clean prefix lost: %q, %v", v, err)
	}
	// New writes must work and survive another reopen.
	db2.Put("t", "after", []byte("crash"))
	db2.Close()
	db3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if v, _ := db3.Get("t", "after"); string(v) != "crash" {
		t.Error("write after torn-tail recovery lost")
	}
}

func TestCorruptMiddleRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	db.Put("t", "a", []byte("1"))
	db.Put("t", "b", []byte("2"))
	db.Close()

	// Flip a byte of the second record's checksum.
	data, _ := os.ReadFile(livePath(dir))
	data[len(data)-1] ^= 0xff
	os.WriteFile(livePath(dir), data, 0o644)

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := snapshotOf(db2)["t"]
	if _, ok := rows["a"]; !ok {
		t.Error("record before corruption lost")
	}
	if _, ok := rows["b"]; ok {
		t.Error("corrupt record surfaced")
	}
}

// TestKeysSortedAndTables checks that compaction leaves one segment that
// holds the state in table then key order.
func TestKeysSortedAndTables(t *testing.T) {
	db, dir := openTemp(t)
	db.Put("z", "k", nil)
	db.Put("a", "k3", nil)
	db.Put("a", "k1", nil)
	db.Put("a", "k2", nil)
	if n := len(snapshotOf(db)); n != 2 {
		t.Fatalf("tables = %d, want a and z", n)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*")); len(segs) != 1 {
		t.Fatalf("segments after compaction: %v", segs)
	}
	var order []string
	l, err := seglog.Open(dir, suffix, func(rec []byte) error {
		tl := binary.LittleEndian.Uint32(rec[1:])
		table := rec[5 : 5+tl]
		key := rec[9+tl : 9+tl+binary.LittleEndian.Uint32(rec[5+tl:])]
		order = append(order, string(table)+"/"+string(key))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if want := []string{"a/k1", "a/k2", "a/k3", "z/k"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("compacted order = %v, want %v", order, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	type rec struct {
		ID    int
		Name  string
		Items []string
	}
	in := rec{ID: 7, Name: "task", Items: []string{"a", "b"}}
	if err := db.PutJSON("t", "r", in); err != nil {
		t.Fatal(err)
	}
	var out rec
	if err := db.GetJSON("t", "r", &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
}

func TestUseAfterClose(t *testing.T) {
	db, _ := openTemp(t)
	db.Close()
	if err := db.Put("t", "k", nil); err == nil {
		t.Error("Put on closed DB succeeded")
	}
	if err := db.Compact(); err == nil {
		t.Error("Compact on closed DB succeeded")
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	check := func(table, key string, value []byte) bool {
		db, err := Open(dir)
		if err != nil {
			return false
		}
		if err := db.Put(table, key, value); err != nil {
			db.Close()
			return false
		}
		db.Close()
		db2, err := Open(dir)
		if err != nil {
			return false
		}
		defer db2.Close()
		got, err := db2.Get(table, key)
		if err != nil {
			return false
		}
		if len(got) == 0 && len(value) == 0 {
			return true
		}
		return reflect.DeepEqual(got, value)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	db.Put("t", "k", []byte("v1"))
	db.Put("t", "k", []byte("v2"))
	db.Put("t", "k", []byte("v3"))
	db.Close()
	db2, _ := Open(dir)
	defer db2.Close()
	if v, _ := db2.Get("t", "k"); string(v) != "v3" {
		t.Fatalf("got %q", v)
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	db, _ := Open(dir)
	defer db.Close()
	val := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put("bench", fmt.Sprintf("k%d", i), val)
	}
}

func BenchmarkGet(b *testing.B) {
	dir := b.TempDir()
	db, _ := Open(dir)
	defer db.Close()
	for i := 0; i < 1000; i++ {
		db.Put("bench", fmt.Sprintf("k%d", i), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get("bench", fmt.Sprintf("k%d", i%1000))
	}
}

func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := db.Put("concurrent", key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(snapshotOf(db)["concurrent"]); n != writers*perWriter {
		t.Fatalf("count = %d, want %d", n, writers*perWriter)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything survives a reopen: concurrent WAL appends were not torn.
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := len(snapshotOf(db2)["concurrent"]); n != writers*perWriter {
		t.Fatalf("after reopen: count = %d", n)
	}
	for w := 0; w < writers; w++ {
		key := fmt.Sprintf("w%d-k%d", w, perWriter-1)
		if v, err := db2.Get("concurrent", key); err != nil || string(v) != key {
			t.Fatalf("key %s: %q, %v", key, v, err)
		}
	}
}

func TestCompactDuringWrites(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Seed some state, then run writers and compactions concurrently.
	for i := 0; i < 100; i++ {
		db.Put("t", fmt.Sprintf("k%d", i), []byte("seed"))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			db.Put("t", fmt.Sprintf("k%d", i%100), []byte(fmt.Sprint(i)))
		}
	}()
	for c := 0; c < 5; c++ {
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(snapshotOf(db)["t"]); n != 100 {
		t.Fatalf("count = %d after concurrent compactions, want 100", n)
	}
	// Final values are the writer's last round.
	if v, err := db.Get("t", "k99"); err != nil || string(v) != "1999" {
		t.Fatalf("k99 = %q, %v", v, err)
	}
}

func BenchmarkCompact(b *testing.B) {
	dir := b.TempDir()
	db, _ := Open(dir)
	defer db.Close()
	for i := 0; i < 5000; i++ {
		db.Put("bench", fmt.Sprintf("k%06d", i), []byte("value-value-value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
