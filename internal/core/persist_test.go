package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"lobster/internal/store"
)

// dbLobster is a simulation workflow of n tasklets, perTask to a task, over
// db and nothing else: enough to plan, recover and complete groups.
func dbLobster(tb testing.TB, db *store.DB, n, perTask int) *Lobster {
	tb.Helper()
	cfg, err := Config{Name: "rows", Kind: KindSimulation, TotalEvents: 100 * n, EventsPerTasklet: 100,
		TaskletsPerTask: perTask, MergeMode: MergeNone}.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	return &Lobster{cfg: cfg, svc: Services{DB: db}, attempts: map[int]int{}, inflight: map[int64]*inflightTask{}}
}

// prepared plans (or recovers) a workflow as Run would before its loop.
func prepared(t *testing.T, db *store.DB, n, perTask int) (*Lobster, bool) {
	t.Helper()
	l := dbLobster(t, db, n, perTask)
	recovered, err := l.prepare()
	if err != nil {
		t.Fatal(err)
	}
	return l, recovered
}

func openDB(t *testing.T, dir string) *store.DB {
	t.Helper()
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// finish completes a group the way a successful result does.
func finish(t *testing.T, l *Lobster, group []int) {
	t.Helper()
	if err := l.handleProcSuccess(&inflightTask{kind: "proc", group: group, output: "/o"}, nil); err != nil {
		t.Fatal(err)
	}
}

// fail spends a group's last retry.
func fail(t *testing.T, l *Lobster, group []int) {
	t.Helper()
	l.attempts[group[0]] = l.cfg.MaxTaskRetries - 1
	if err := l.handleProcFailure(&inflightTask{kind: "proc", group: group}); err != nil {
		t.Fatal(err)
	}
}

// doneIDs lists the tasklets l holds done.
func doneIDs(l *Lobster) []int {
	var ids []int
	for id, s := range l.state {
		if s == StateDone {
			ids = append(ids, id)
		}
	}
	return ids
}

// checkRecovered: l recovered exactly done, and its pending groups cover
// every other tasklet once.
func checkRecovered(t *testing.T, l *Lobster, recovered bool, done []int) {
	t.Helper()
	if !recovered {
		t.Fatal("prior state not recovered")
	}
	if got := doneIDs(l); !reflect.DeepEqual(got, done) || l.doneTasklets != len(done) {
		t.Fatalf("done after recovery = %v (%d counted), want %v", got, l.doneTasklets, done)
	}
	seen := map[int]bool{}
	for _, g := range l.pending {
		for _, id := range g {
			if seen[id] || l.state[id] == StateDone {
				t.Fatalf("tasklet %d planned again (pending groups %v)", id, l.pending)
			}
			seen[id] = true
		}
	}
	if len(seen)+len(done) != len(l.tasklets) {
		t.Errorf("pending groups %v and done %v do not cover %d tasklets", l.pending, done, len(l.tasklets))
	}
}

// TestDBRowsPerTask: a fresh plan writes only its marker, and each
// finished group one row naming its range.
func TestDBRowsPerTask(t *testing.T) {
	db := openDB(t, t.TempDir())
	defer db.Close()
	l, recovered := prepared(t, db, 10, 4)
	if recovered {
		t.Fatal("fresh DB reported recovered")
	}
	if _, err := db.Get(l.taskletsTable(), taskletKey(0)); err != store.ErrNotFound {
		t.Fatalf("fresh plan wrote a tasklet row (err %v)", err)
	}
	for _, g := range l.pending {
		finish(t, l, g)
	}
	for first, want := range map[int]string{0: `{"state":"done","n":4}`, 4: `{"state":"done","n":4}`, 8: `{"state":"done","n":2}`} {
		if got, err := db.Get(l.taskletsTable(), taskletKey(first)); err != nil || string(got) != want {
			t.Errorf("row %d = %s (err %v), want %s", first, got, err, want)
		}
	}
	for _, id := range []int{1, 2, 3, 5, 9} {
		if _, err := db.Get(l.taskletsTable(), taskletKey(id)); err != store.ErrNotFound {
			t.Errorf("row for tasklet %d inside a group (err %v)", id, err)
		}
	}
}

// TestRecoveryReadsPerTaskletRows: a DB in the per-tasklet layout, one
// {state} row for every tasklet of the plan, pending ones included, reads
// as one-tasklet ranges and recovers to the states it always did: done
// stays done, anything else runs again.
func TestRecoveryReadsPerTaskletRows(t *testing.T) {
	db := openDB(t, t.TempDir())
	defer db.Close()
	l := dbLobster(t, db, 12, 3)
	if err := db.Put(l.metaTable(), "plan", []byte(`{"tasklets":12,"kind":"simulation"}`)); err != nil {
		t.Fatal(err)
	}
	states := []string{"done", "done", "done", "failed", "running", "done", "pending", "pending", "done", "pending", "pending", ""}
	for id, s := range states {
		if s == "" {
			continue // a row never written reads as pending
		}
		if err := db.Put(l.taskletsTable(), taskletKey(id), []byte(`{"state":"`+s+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := l.prepare()
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, l, recovered, []int{0, 1, 2, 5, 8})
	if want := [][]int{{3, 4}, {6, 7}, {9, 10, 11}}; !reflect.DeepEqual(l.pending, want) {
		t.Errorf("pending groups %v, want %v", l.pending, want)
	}
}

// TestRecoveryAcrossTaskSizes: restarts with a different TaskletsPerTask
// each re-run no finished tasklet, also where a newer done row starts
// inside the range of an older failed one.
func TestRecoveryAcrossTaskSizes(t *testing.T) {
	db := openDB(t, t.TempDir())
	defer db.Close()
	l, _ := prepared(t, db, 12, 3) // [0 1 2] [3 4 5] [6 7 8] [9 10 11]
	finish(t, l, l.pending[0])
	fail(t, l, l.pending[1])
	finish(t, l, l.pending[3])

	l, recovered := prepared(t, db, 12, 2)
	checkRecovered(t, l, recovered, []int{0, 1, 2, 9, 10, 11})
	if want := [][]int{{3, 4}, {5, 6}, {7, 8}}; !reflect.DeepEqual(l.pending, want) {
		t.Fatalf("pending groups %v, want %v", l.pending, want)
	}
	finish(t, l, l.pending[1]) // 5 6: its row starts inside the failed row of 3 4 5

	l, recovered = prepared(t, db, 12, 4)
	checkRecovered(t, l, recovered, []int{0, 1, 2, 5, 6, 9, 10, 11})
	for _, g := range l.pending {
		finish(t, l, g)
	}

	l, recovered = prepared(t, db, 12, 5)
	checkRecovered(t, l, recovered, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
}

// TestRecoveryTornGroupRow: a crash while the second of two group rows is
// being written leaves that group pending and the first done.
func TestRecoveryTornGroupRow(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-000001.wal")
	db := openDB(t, dir)
	l, _ := prepared(t, db, 12, 4)
	groups := l.pending
	finish(t, l, groups[0])
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	l.svc.DB = openDB(t, dir)
	finish(t, l, groups[1])
	if err := l.svc.DB.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Size() <= clean.Size() {
		t.Fatalf("second group row not in %s (%d bytes, %d before)", seg, whole.Size(), clean.Size())
	}
	if err := os.Truncate(seg, (clean.Size()+whole.Size())/2); err != nil {
		t.Fatal(err)
	}

	db = openDB(t, dir)
	defer db.Close()
	l, recovered := prepared(t, db, 12, 4)
	checkRecovered(t, l, recovered, []int{0, 1, 2, 3})
	if want := [][]int{{4, 5, 6, 7}, {8, 9, 10, 11}}; !reflect.DeepEqual(l.pending, want) {
		t.Errorf("pending groups %v, want %v", l.pending, want)
	}
}

// FuzzLoadState: arbitrary bytes under an arbitrary key of a plan's
// tasklets table. loadState reads at most one row per tasklet whatever a
// row's n says, and marks done exactly the clamped range of a done row
// under a tasklet's key, never a tasklet outside [0, N) (the state slice
// would panic). A row that does not decode refuses the DB.
func FuzzLoadState(f *testing.F) {
	f.Add(taskletKey(0), []byte(`{"state":"done","n":3}`), uint16(8))
	f.Add(taskletKey(5), []byte(`{"state":"done","n":9223372036854775807}`), uint16(8))
	f.Add(taskletKey(2), []byte(`{"state":"done","n":-9223372036854775808}`), uint16(8))
	f.Add(taskletKey(7), []byte(`{"state":"done","n":1e99}`), uint16(8))
	f.Add(taskletKey(1), []byte(`{"state":"done"}`), uint16(4)) // the per-tasklet layout
	f.Add(taskletKey(1), []byte(`{"state":"pending"}`), uint16(4))
	f.Add(taskletKey(3), []byte(`{"state":"failed","n":2}`), uint16(4))
	f.Add(taskletKey(9), []byte(`{"state":"done","n":1}`), uint16(8)) // past the plan
	f.Add("7", []byte(`{"state":"done","n":2}`), uint16(8))           // not a tasklet key
	f.Add(taskletKey(0), []byte(`{"state":`), uint16(8))
	f.Add(taskletKey(0), []byte(`null`), uint16(8))
	f.Fuzz(func(t *testing.T, key string, value []byte, plan uint16) {
		n := int(plan%4096) + 1
		db := openDB(t, t.TempDir())
		defer db.Close()
		l := dbLobster(t, db, n, 1)
		l.tasklets = make([]Tasklet, n)
		l.state = make([]TaskletState, n)
		if err := l.persistPlan(); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(l.taskletsTable(), key, value); err != nil {
			t.Fatal(err)
		}
		recovered, err := l.loadState()

		// What the one row should do: name a tasklet, then decode.
		first, keyErr := strconv.Atoi(key)
		read := keyErr == nil && first >= 0 && first < n && taskletKey(first) == key
		var row taskletRow
		decodeErr := json.Unmarshal(value, &row)
		if read && decodeErr != nil {
			if err == nil {
				t.Fatalf("row %q = %q does not decode (%v) but was accepted", key, value, decodeErr)
			}
			return
		}
		if err != nil || !recovered {
			t.Fatalf("loadState = %v, %v on a readable DB", recovered, err)
		}
		lo, hi := 0, 0
		if read && row.State == StateDone {
			lo, hi = first, first+min(max(row.N, 1), n-first)
		}
		for id, s := range l.state {
			if want := id >= lo && id < hi; (s == StateDone) != want {
				t.Fatalf("row %q = %q, plan of %d: tasklet %d state %q, want done %v", key, value, n, id, s, want)
			}
		}
	})
}

// BenchmarkPlanAndPersist plans a 100k-tasklet simulation, ten tasklets a
// task, on a fresh Lobster DB and completes every group, as Run's
// bookkeeping does without the master. B/tasklet is what planning and
// completing allocate per tasklet; wal-B/task the log bytes a finished
// task writes. Both are deterministic.
func BenchmarkPlanAndPersist(b *testing.B) {
	const tasklets = 100_000
	var alloc, wal, tasks float64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		l := dbLobster(b, db, tasklets, 10)
		info := &inflightTask{kind: "proc", output: "/o"}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()
		if _, err := l.prepare(); err != nil {
			b.Fatal(err)
		}
		for _, g := range l.pending {
			info.group = g
			if err := l.handleProcSuccess(info, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		alloc += float64(ms.TotalAlloc - before)
		wal += float64(db.WALSize())
		tasks += float64(len(l.pending))
		if l.doneTasklets != tasklets {
			b.Fatalf("%d of %d tasklets done", l.doneTasklets, tasklets)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(alloc/float64(b.N)/tasklets, "B/tasklet")
	b.ReportMetric(wal/tasks, "wal-B/task")
}
