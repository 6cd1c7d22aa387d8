package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
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
	if !db.Has("tasks", "t1") {
		t.Error("Has = false")
	}
	if err := db.Delete("tasks", "t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("tasks", "t1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	if err := db.Delete("tasks", "missing"); err != nil {
		t.Errorf("deleting missing key: %v", err)
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
	db.Delete("tasks", "t050")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.Count("tasks"); n != 99 {
		t.Fatalf("count after reopen = %d", n)
	}
	v, err := db2.Get("tasks", "t042")
	if err != nil || string(v) != "v42" {
		t.Fatalf("t042 = %q, %v", v, err)
	}
	if db2.Has("tasks", "t050") {
		t.Error("deleted key survived reopen")
	}
}

func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	for i := 0; i < 50; i++ {
		db.Put("a", fmt.Sprintf("k%d", i), []byte("x"))
	}
	for i := 0; i < 25; i++ {
		db.Delete("a", fmt.Sprintf("k%d", i))
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
	if n := db2.Count("a"); n != 26 {
		t.Fatalf("count = %d, want 26", n)
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
	walPath := filepath.Join(dir, "lobster.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
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
	db.SyncEvery = true
	db.Put("t", "a", []byte("1"))
	db.Put("t", "b", []byte("2"))
	db.Close()

	// Flip a byte inside the second record's payload.
	walPath := filepath.Join(dir, "lobster.wal")
	data, _ := os.ReadFile(walPath)
	data[len(data)-1] ^= 0xff
	os.WriteFile(walPath, data, 0o644)

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Has("t", "a") {
		t.Error("record before corruption lost")
	}
	if db2.Has("t", "b") {
		t.Error("corrupt record surfaced")
	}
}

func TestKeysSortedAndTables(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	db.Put("z", "k", nil)
	db.Put("a", "k3", nil)
	db.Put("a", "k1", nil)
	db.Put("a", "k2", nil)
	keys := db.Keys("a")
	if !reflect.DeepEqual(keys, []string{"k1", "k2", "k3"}) {
		t.Fatalf("keys = %v", keys)
	}
	if n := len(snapshotOf(db)); n != 2 {
		t.Fatalf("tables = %d, want a and z", n)
	}
	db.Delete("z", "k")
	if snap := snapshotOf(db); len(snap) != 1 || snap["a"] == nil {
		t.Fatalf("empty table not dropped: %v", snap)
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
	if n := db.Count("concurrent"); n != writers*perWriter {
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
	if n := db2.Count("concurrent"); n != writers*perWriter {
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
	if n := db.Count("t"); n != 100 {
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
