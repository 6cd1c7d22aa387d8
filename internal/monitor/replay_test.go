package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"lobster/internal/telemetry"
)

// TestReplayLogEquivalence writes records through a telemetry event log and
// replays them into a fresh monitor: the rebuilt DB must match the live one
// record for record, and produce identical query results.
func TestReplayLogEquivalence(t *testing.T) {
	live := New()
	var buf bytes.Buffer
	log := telemetry.NewEventLog(&buf, nil)
	for i := 0; i < 50; i++ {
		rec := TaskRecord{
			TaskID: int64(i + 1), Kind: "analysis", Worker: fmt.Sprintf("w%d", i%4),
			Submit: float64(i), Start: float64(i) + 1, Finish: float64(i) + 10,
			CPUTime: 5, IOTime: 2, SetupTime: 1,
			ExitCode: map[bool]int{true: 0, false: 40}[i%7 != 0],
			Metrics:  map[string]float64{"events": float64(i * 10)},
		}
		live.Add(rec)
		log.Emit("task", rec)
	}
	log.Emit("span", map[string]any{"span_id": 1}) // unrelated type: skipped
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	rebuilt := New()
	n, err := rebuilt.ReplayLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("replayed %d records, want 50", n)
	}
	if !reflect.DeepEqual(live.Records(), rebuilt.Records()) {
		t.Error("replayed records differ from live records")
	}

	a, err := live.Timeline(0, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rebuilt.Timeline(0, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("timelines differ: live=%+v rebuilt=%+v", a, b)
	}
	fa, _ := live.FailureCodes(0, 60, 10)
	fb, _ := rebuilt.FailureCodes(0, 60, 10)
	if !reflect.DeepEqual(fa, fb) {
		t.Errorf("failure codes differ: live=%v rebuilt=%v", fa, fb)
	}
}

// TestReplayLogBeforeErrorField: a log written before records carried
// their failed segment's error replays to the records it held, Error
// empty, and those records write the same lines back.
func TestReplayLogBeforeErrorField(t *testing.T) {
	const old = `{"t":0,"type":"task","data":{"task_id":1,"kind":"analysis","worker":"w0","submit":0.5,"dispatch":0.75,"start":1,"finish":3,"return":3.25,"exit_code":0,"requeues":0,"cpu_time":1.5,"io_time":0.25,"setup_time":0.125,"stage_in":0.0625,"stage_out":0.03125,"wq_stage_in":0.25,"wq_stage_out":0.25,"lost_time":0,"metrics":{"bytes_in":256,"bytes_out":8,"events":1}}}
{"t":0,"type":"task","data":{"task_id":2,"kind":"analysis","worker":"w1","submit":0.5,"dispatch":0.75,"start":1,"finish":2,"return":2.25,"exit_code":60,"failed_segment":"stage_out","requeues":1,"cpu_time":0.5,"io_time":0.25,"setup_time":0.125,"stage_in":0.0625,"stage_out":0.03125,"wq_stage_in":0.25,"wq_stage_out":0.25,"lost_time":0,"metrics":{"bytes_in":256,"bytes_out":0,"events":1}}}
`
	m := New()
	if n, err := m.ReplayLog(bytes.NewBufferString(old)); err != nil || n != 2 {
		t.Fatalf("replayed %d records: %v", n, err)
	}
	metrics := func(out float64) map[string]float64 {
		return map[string]float64{"bytes_in": 256, "bytes_out": out, "events": 1}
	}
	want := []TaskRecord{
		{TaskID: 1, Kind: "analysis", Worker: "w0", Submit: 0.5, Dispatch: 0.75, Start: 1, Finish: 3, Return: 3.25,
			CPUTime: 1.5, IOTime: 0.25, SetupTime: 0.125, StageIn: 0.0625, StageOut: 0.03125, WQStageIn: 0.25, WQStageOut: 0.25, Metrics: metrics(8)},
		{TaskID: 2, Kind: "analysis", Worker: "w1", Submit: 0.5, Dispatch: 0.75, Start: 1, Finish: 2, Return: 2.25,
			ExitCode: 60, FailedSegment: "stage_out", Requeues: 1,
			CPUTime: 0.5, IOTime: 0.25, SetupTime: 0.125, StageIn: 0.0625, StageOut: 0.03125, WQStageIn: 0.25, WQStageOut: 0.25, Metrics: metrics(0)},
	}
	if got := m.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed\n%+v\nwant\n%+v", got, want)
	}
	var buf bytes.Buffer
	log := telemetry.NewEventLog(&buf, nil)
	for _, rec := range want {
		log.Emit("task", rec)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != old {
		t.Errorf("the records write back as\n%s\nnot\n%s", buf.String(), old)
	}
}

// TestReplayLogBatchedEvents replays a log mixing single "task" events
// with "task_batch" events (the framing runs with event batching enabled
// write) and checks the rebuilt DB matches a monitor fed the same records
// one at a time.
func TestReplayLogBatchedEvents(t *testing.T) {
	live := New()
	var buf bytes.Buffer
	log := telemetry.NewEventLog(&buf, nil)
	mk := func(i int) TaskRecord {
		return TaskRecord{
			TaskID: int64(i + 1), Kind: "analysis", Worker: fmt.Sprintf("w%d", i%3),
			Submit: float64(i), Start: float64(i) + 1, Finish: float64(i) + 8,
			CPUTime: 4, ExitCode: []int{0, 0, 40}[i%3],
		}
	}
	i := 0
	for i < 10 { // singles first: old-style prefix of a mixed log
		rec := mk(i)
		live.Add(rec)
		log.Emit("task", rec)
		i++
	}
	for i < 50 { // then batches of 8
		batch := make([]TaskRecord, 0, 8)
		for len(batch) < 8 && i < 50 {
			rec := mk(i)
			live.Add(rec)
			batch = append(batch, rec)
			i++
		}
		log.Emit("task_batch", batch)
	}
	log.Emit("task_batch", []TaskRecord{}) // empty batch: harmless no-op
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	rebuilt := New()
	n, err := rebuilt.ReplayLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("replayed %d records, want 50", n)
	}
	if !reflect.DeepEqual(live.Records(), rebuilt.Records()) {
		t.Error("replayed records differ from live records")
	}
}

// TestReplayLogPathRotated replays a size-capped, rotated on-disk log,
// segments (<path>.000001, …) before the live file, and checks the
// rebuilt DB holds every record across all segments in write order.
func TestReplayLogPathRotated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	log, err := telemetry.OpenEventLogLimit(path, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	for i := 0; i < 60; i++ {
		rec := TaskRecord{
			TaskID: int64(i + 1), Kind: "analysis",
			Submit: float64(i), Start: float64(i) + 1, Finish: float64(i) + 10,
			CPUTime: 5,
		}
		live.Add(rec)
		log.Emit("task", rec)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if files, err := telemetry.EventFiles(path); err != nil || len(files) < 2 {
		t.Fatalf("expected a rotated log, got %v (%v)", files, err)
	}

	rebuilt := New()
	n := 0
	if err := telemetry.ReadEventsPath(path, rebuilt.replayEvent(&n)); err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Fatalf("replayed %d records, want 60", n)
	}
	if !reflect.DeepEqual(live.Records(), rebuilt.Records()) {
		t.Error("replayed records differ from live records")
	}
}

// TestTimelineIndexOutOfOrder adds records in scrambled finish order and
// checks windowed queries against a monitor populated in sorted order —
// exercising the re-sort path of the cached index, including invalidation
// by Adds between queries.
func TestTimelineIndexOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]TaskRecord, 200)
	for i := range recs {
		f := rng.Float64() * 1000
		recs[i] = TaskRecord{
			TaskID: int64(i + 1), Start: f - 5, Finish: f,
			CPUTime: 3, ExitCode: []int{0, 0, 0, 50}[i%4],
		}
	}
	// scrambled receives random finish order (stable re-sort path); ordered
	// receives the same records sorted by finish (append fast path).
	scrambled := New()
	for _, r := range recs {
		scrambled.Add(r)
	}
	byFinish := append([]TaskRecord(nil), recs...)
	sort.Slice(byFinish, func(a, b int) bool { return byFinish[a].Finish < byFinish[b].Finish })
	ordered := New()
	for _, r := range byFinish {
		ordered.Add(r)
	}

	check := func(start, end float64) {
		t.Helper()
		a, err := scrambled.Timeline(start, end, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ordered.Timeline(start, end, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("timeline [%g,%g) differs", start, end)
		}
		fa, _ := scrambled.FailureCodes(start, end, 50)
		fb, _ := ordered.FailureCodes(start, end, 50)
		if !reflect.DeepEqual(fa, fb) {
			t.Errorf("failure codes [%g,%g) differ: %v vs %v", start, end, fa, fb)
		}
	}
	check(0, 1000)
	check(900, 1000) // recent window, pruned by the index
	// Invalidate the cached index with more (earlier-finishing) records.
	late := TaskRecord{TaskID: 999, Start: 10, Finish: 20, CPUTime: 1}
	scrambled.Add(late)
	ordered.Add(late)
	check(0, 1000)
	check(0, 100)
}

// BenchmarkTimeline measures windowed timeline queries against 1M records.
// The cached finish-sorted index makes the recent-window query independent
// of run length: it binary-searches to the window instead of scanning all
// 1M records.
func BenchmarkTimeline(b *testing.B) {
	const n = 1_000_000
	const horizon = 48 * 3600.0
	m := New()
	for i := 0; i < n; i++ {
		f := horizon * float64(i) / n
		m.Add(TaskRecord{
			TaskID: int64(i + 1), Start: f - 1800, Finish: f,
			CPUTime: 1500, ExitCode: []int{0, 0, 0, 40}[i%4],
		})
	}
	b.Run("FullWindow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Timeline(0, horizon, 1800); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RecentWindow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Timeline(horizon-3600, horizon, 1800); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RecentFailureCodes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.FailureCodes(horizon-3600, horizon, 1800); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReplayLogPartialWritePrefixes is the crash-recovery property test:
// replaying ANY byte prefix of a valid event log — the shape a crash
// mid-append leaves behind — must succeed and yield exactly the records
// whose JSON lines fully fit in the prefix, in order. A truncation that
// only eats the trailing newline still leaves a complete final line; any
// deeper cut is the torn tail the reader skips.
func TestReplayLogPartialWritePrefixes(t *testing.T) {
	live := New()
	var buf bytes.Buffer
	log := telemetry.NewEventLog(&buf, nil)
	const n = 20
	var ends []int // byte offset just past each task record's line
	for i := 0; i < n; i++ {
		rec := TaskRecord{
			TaskID: int64(i + 1), Kind: "analysis", Worker: fmt.Sprintf("w%d", i%3),
			Submit: float64(i), Start: float64(i) + 1, Finish: float64(i) + 9,
			CPUTime: 4, ExitCode: []int{0, 0, 40}[i%3],
			Metrics: map[string]float64{"events": float64(i)},
		}
		live.Add(rec)
		log.Emit("task", rec)
		if i == n/2 {
			log.Emit("span", map[string]any{"span_id": i}) // skipped on replay
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			ends = append(ends, -1) // placeholder overwritten below
		}
		ends = append(ends, buf.Len())
	}
	// The span event shares a flush with record n/2; recompute its task
	// line end by scanning newlines so the expectation stays exact.
	ends = ends[:0]
	off := 0
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		off += len(line)
		if bytes.Contains(line, []byte(`"type":"task"`)) {
			ends = append(ends, off)
		}
	}
	if len(ends) != n {
		t.Fatalf("found %d task lines, want %d", len(ends), n)
	}

	// Each prefix is also the file a crash left behind, reopened and given
	// two more events: those must replay after exactly the prefix's records.
	more := []TaskRecord{{TaskID: 101, Kind: "merge", Finish: 50}, {TaskID: 102, Kind: "merge", Finish: 51}}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	full := buf.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		m := New()
		got, err := m.ReplayLog(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", cut, err)
		}
		want := 0
		for _, end := range ends {
			if cut >= end || cut == end-1 { // line complete, newline optional at EOF
				want++
			}
		}
		if got != want {
			t.Fatalf("prefix of %d bytes replayed %d records, want %d", cut, got, want)
		}
		if len(m.Records()) != got {
			t.Fatalf("prefix of %d bytes: DB holds %d records, replay reported %d", cut, len(m.Records()), got)
		}
		if got > 0 && !reflect.DeepEqual(m.Records(), live.Records()[:got]) {
			t.Fatalf("prefix of %d bytes: replayed records are not a prefix of the live DB", cut)
		}

		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := telemetry.OpenEventLog(path, nil)
		if err != nil {
			t.Fatalf("prefix of %d bytes: reopening: %v", cut, err)
		}
		for _, rec := range more {
			reopened.Emit("task", rec)
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		m2, n2 := New(), 0
		if err := telemetry.ReadEventsPath(path, m2.replayEvent(&n2)); err != nil {
			t.Fatalf("prefix of %d bytes, reopened and appended to: %v", cut, err)
		}
		if want := append(live.Records()[:got:got], more...); !reflect.DeepEqual(m2.Records(), want) {
			t.Fatalf("prefix of %d bytes, reopened and appended to: replayed %d records, want the %d of the prefix + %d", cut, n2, got, len(more))
		}
	}
}

// TestReplayLogInterleavedHistoryPlane replays a log shaped like a full
// production run with the history plane armed: task batches, alert
// transitions, and the since-removed history store's "tsdb_segment"
// markers all interleaved in one stream. Replay must restore every task
// and skip the rest without error — including under every possible
// torn-tail byte prefix a crash could leave. The stream also
// carries the lines no program writes any more: the "election" and
// "ha_submit" lines of the since-removed replicated master and the
// "profile_bundle" lines of the since-removed fleet hub. They are
// skipped, so the log replays to exactly what the same log without them
// does.
func TestReplayLogInterleavedHistoryPlane(t *testing.T) {
	live := New()
	var buf, plainBuf bytes.Buffer
	log := telemetry.NewEventLog(&buf, nil)
	plain := telemetry.NewEventLog(&plainBuf, nil) // the same log minus the old lines
	emit := func(typ string, v any) {
		log.Emit(typ, v)
		plain.Emit(typ, v)
	}
	const n = 24
	for i := 0; i < n; i += 4 {
		batch := make([]TaskRecord, 0, 4)
		for j := i; j < i+4; j++ {
			rec := TaskRecord{
				TaskID: int64(j + 1), Kind: "analysis", Worker: fmt.Sprintf("w%d", j%3),
				Submit: float64(j), Start: float64(j) + 1, Finish: float64(j) + 9,
				CPUTime: 4, ExitCode: []int{0, 0, 40, 0}[j%4],
			}
			live.Add(rec)
			batch = append(batch, rec)
		}
		emit("task_batch", batch)
		// Interleave the other planes' event types between batches.
		switch (i / 4) % 3 {
		case 0:
			emit("alert", AlertRecord{
				Time: float64(i), Rule: "stuck_tasks", Severity: "page",
				State: "firing", Value: float64(i) * 10, Threshold: 300,
				Profile: fmt.Sprintf("profiles/bundle-%06d", i),
			})
		case 1:
			log.Emit("profile_bundle", map[string]any{
				"dir": fmt.Sprintf("profiles/bundle-%06d", i), "rule": "stuck_tasks",
				"profiles": []string{"cpu.pprof", "heap.pprof", "goroutine.pprof"},
			})
		case 2:
			emit("tsdb_segment", json.RawMessage(fmt.Sprintf(
				`{"seq":%d,"path":"tsdb/seg-%06d.tsdb","size":%d}`, i/4, i/4, 4<<20)))
		}
		if i == 8 {
			log.Emit("election", map[string]any{"t": 0.2, "node": 3, "term": 1, "role": "leader", "leader": 3})
			log.Emit("ha_submit", map[string]any{"id": 99, "func": "analysis", "tag": "job-a"})
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{"election", "ha_submit", "profile_bundle"} {
		if !bytes.Contains(buf.Bytes(), []byte(`"type":"`+typ+`"`)) {
			t.Fatalf("log lacks the old %s lines", typ)
		}
	}
	without := New()
	if got, err := without.ReplayLog(&plainBuf); err != nil || got != n {
		t.Fatalf("log without the old lines replayed %d task records (%v), want %d", got, err, n)
	}

	rebuilt := New()
	got, err := rebuilt.ReplayLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("replayed %d task records, want %d", got, n)
	}
	if !reflect.DeepEqual(live.Records(), rebuilt.Records()) {
		t.Error("replayed records differ from live records")
	}
	if !reflect.DeepEqual(without.Records(), rebuilt.Records()) {
		t.Error("election / ha_submit / profile_bundle lines changed the replayed records")
	}

	// Crash-recovery sweep: every byte prefix must replay cleanly, and
	// what it restores must be a prefix of the full history — monotone in
	// the cut point, never an error, never a half-parsed record.
	full := buf.Bytes()
	prevTasks := 0
	for cut := 0; cut <= len(full); cut++ {
		m := New()
		nt, err := m.ReplayLog(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", cut, err)
		}
		if nt < prevTasks {
			t.Fatalf("prefix of %d bytes lost ground: tasks %d<%d", cut, nt, prevTasks)
		}
		prevTasks = nt
		if nt > 0 && !reflect.DeepEqual(m.Records(), live.Records()[:nt]) {
			t.Fatalf("prefix of %d bytes: tasks are not a prefix of the live DB", cut)
		}
	}
	if prevTasks != n {
		t.Fatalf("full log replayed %d/%d tasks", prevTasks, n)
	}
}
