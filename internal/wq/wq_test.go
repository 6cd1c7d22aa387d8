package wq

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// testRegistry returns executors used across the tests.
func testRegistry() Registry {
	return Registry{
		"echo": func(ctx *ExecContext) error {
			ctx.SetOutput("out.txt", []byte(ctx.Task.Args["text"]))
			return nil
		},
		"cat": func(ctx *ExecContext) error {
			var buf bytes.Buffer
			for _, in := range ctx.Task.Inputs {
				data, err := os.ReadFile(filepath.Join(ctx.Sandbox, in.Name))
				if err != nil {
					return err
				}
				buf.Write(data)
			}
			return os.WriteFile(filepath.Join(ctx.Sandbox, "merged"), buf.Bytes(), 0o644)
		},
		"sleep": func(ctx *ExecContext) error {
			d, err := time.ParseDuration(ctx.Task.Args["d"])
			if err != nil {
				return err
			}
			time.Sleep(d)
			return nil
		},
		"fail": func(ctx *ExecContext) error {
			return &ExitError{Code: 42, Msg: "synthetic failure"}
		},
		"panic": func(ctx *ExecContext) error {
			panic("executor bug")
		},
	}
}

func newMaster(t *testing.T) *Master {
	t.Helper()
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func newWorker(t *testing.T, addr, name string, cores int) *Worker {
	t.Helper()
	w, err := NewWorker(addr, name, cores, t.TempDir(), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestSingleTaskRoundTrip(t *testing.T) {
	m := newMaster(t)
	newWorker(t, m.Addr(), "w0", 2)
	id, err := m.Submit(&Task{
		Func:    "echo",
		Args:    map[string]string{"text": "hello lobster"},
		Outputs: []string{"out.txt"},
		Tag:     "analysis",
	})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := m.WaitResult(10 * time.Second)
	if !ok {
		t.Fatal("no result")
	}
	if r.TaskID != id || r.Failed() {
		t.Fatalf("result = %+v", r)
	}
	if r.Tag != "analysis" || r.Worker != "w0" {
		t.Errorf("metadata: tag=%q worker=%q", r.Tag, r.Worker)
	}
	if len(r.Outputs) != 1 || string(r.Outputs[0].Data) != "hello lobster" {
		t.Fatalf("outputs = %+v", r.Outputs)
	}
	ts := r.Stats.Times
	if ts.Submitted.IsZero() || ts.Dispatched.IsZero() || ts.Started.IsZero() ||
		ts.Finished.IsZero() || ts.Returned.IsZero() {
		t.Errorf("incomplete timestamps: %+v", ts)
	}
	if ts.Dispatched.Before(ts.Submitted) || ts.Returned.Before(ts.Started) {
		t.Errorf("timestamp ordering wrong: %+v", ts)
	}
}

func TestInputStagingAndOutputs(t *testing.T) {
	m := newMaster(t)
	newWorker(t, m.Addr(), "w0", 1)
	m.Submit(&Task{
		Func: "cat",
		Inputs: []FileSpec{
			{Name: "a.txt", Data: []byte("one-")},
			{Name: "sub/b.txt", Data: []byte("two")},
		},
		Outputs: []string{"merged"},
	})
	r, ok := m.WaitResult(10 * time.Second)
	if !ok || r.Failed() {
		t.Fatalf("result = %+v", r)
	}
	if string(r.Outputs[0].Data) != "one-two" {
		t.Fatalf("merged = %q", r.Outputs[0].Data)
	}
	if r.Stats.BytesIn != 7 || r.Stats.BytesOut != 7 {
		t.Errorf("bytes: in=%d out=%d", r.Stats.BytesIn, r.Stats.BytesOut)
	}
}

func TestManyTasksManyWorkers(t *testing.T) {
	m := newMaster(t)
	for i := 0; i < 4; i++ {
		newWorker(t, m.Addr(), fmt.Sprintf("w%d", i), 4)
	}
	const n = 100
	for i := 0; i < n; i++ {
		m.Submit(&Task{
			Func:    "echo",
			Args:    map[string]string{"text": strconv.Itoa(i)},
			Outputs: []string{"out.txt"},
		})
	}
	results := m.Drain(n, 30*time.Second)
	if len(results) != n {
		t.Fatalf("got %d results", len(results))
	}
	workers := make(map[string]int)
	for _, r := range results {
		if r.Failed() {
			t.Fatalf("task %d failed: %s", r.TaskID, r.Error)
		}
		workers[r.Worker]++
	}
	if len(workers) < 2 {
		t.Errorf("work not distributed: %v", workers)
	}
	st := m.Stats()
	if st.TasksDone != n || st.TasksFailed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFailureAndExitCode(t *testing.T) {
	m := newMaster(t)
	newWorker(t, m.Addr(), "w0", 1)
	m.Submit(&Task{Func: "fail"})
	r, ok := m.WaitResult(10 * time.Second)
	if !ok {
		t.Fatal("no result")
	}
	if !r.Failed() || r.ExitCode != 42 {
		t.Fatalf("result = %+v", r)
	}
}

func TestPanicIsolation(t *testing.T) {
	m := newMaster(t)
	w := newWorker(t, m.Addr(), "w0", 1)
	m.Submit(&Task{Func: "panic"})
	r, ok := m.WaitResult(10 * time.Second)
	if !ok || !r.Failed() {
		t.Fatalf("panic not reported: %+v", r)
	}
	// Worker must survive and run further tasks.
	m.Submit(&Task{Func: "echo", Args: map[string]string{"text": "alive"}, Outputs: []string{"out.txt"}})
	r, ok = m.WaitResult(10 * time.Second)
	if !ok || r.Failed() {
		t.Fatalf("worker dead after panic: %+v", r)
	}
	if w.TasksRun() != 2 || w.TasksFailed() != 1 {
		t.Errorf("worker counters: run=%d failed=%d", w.TasksRun(), w.TasksFailed())
	}
}

func TestUnknownExecutor(t *testing.T) {
	m := newMaster(t)
	newWorker(t, m.Addr(), "w0", 1)
	m.Submit(&Task{Func: "no-such-func"})
	r, ok := m.WaitResult(10 * time.Second)
	if !ok || r.ExitCode != 127 {
		t.Fatalf("result = %+v", r)
	}
}

func TestMissingDeclaredOutput(t *testing.T) {
	m := newMaster(t)
	newWorker(t, m.Addr(), "w0", 1)
	m.Submit(&Task{Func: "echo", Args: map[string]string{"text": "x"}, Outputs: []string{"wrong-name"}})
	r, ok := m.WaitResult(10 * time.Second)
	if !ok || r.ExitCode != 171 {
		t.Fatalf("result = %+v", r)
	}
}

// TestSetOutputInMemory: an output handed over with SetOutput reaches
// the master without a sandbox ever existing — through a copy of the
// context (a tracing shim re-tagging it), on the failure path too, and
// ahead of a sandbox file of the same name; an output nobody set still
// comes from the sandbox.
func TestSetOutputInMemory(t *testing.T) {
	m := newMaster(t)
	dir := t.TempDir()
	inner := func(ctx *ExecContext) error {
		ctx.SetOutput("report.json", []byte("from memory"))
		switch ctx.Task.Args["mode"] {
		case "fail":
			return &ExitError{Code: 42, Msg: "after the report"}
		case "file":
			for i := 0; i < 2; i++ { // the second call finds it made
				if err := ctx.EnsureSandbox(); err != nil {
					return err
				}
			}
			for _, name := range []string{"report.json", "side.txt"} {
				if err := os.WriteFile(filepath.Join(ctx.Sandbox, name), []byte("from disk"), 0o644); err != nil {
					return err
				}
			}
		}
		return nil
	}
	w, err := NewWorker(m.Addr(), "w0", 1, dir, Registry{"shim": func(ctx *ExecContext) error {
		retagged := *ctx
		retagged.WorkerName = "shim"
		return inner(&retagged)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	run := func(mode string, outputs ...string) *Result {
		t.Helper()
		m.Submit(&Task{Func: "shim", Args: map[string]string{"mode": mode}, Outputs: outputs})
		r, ok := m.WaitResult(10 * time.Second)
		if !ok {
			t.Fatal("no result")
		}
		return r
	}

	before := FilesCreated()
	if r := run("ok", "report.json"); r.Failed() || len(r.Outputs) != 1 || string(r.Outputs[0].Data) != "from memory" {
		t.Errorf("success path: %+v", r)
	}
	if r := run("fail", "report.json"); r.ExitCode != 42 || len(r.Outputs) != 1 || string(r.Outputs[0].Data) != "from memory" {
		t.Errorf("failure path lost the in-memory output: %+v", r)
	}
	if n := FilesCreated() - before; n != 0 {
		t.Errorf("two tasks declaring only outputs created %d files and directories, want 0", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("worker dir holds %d entries after tasks that never asked for a sandbox", len(entries))
	}

	r := run("file", "report.json", "side.txt")
	if r.Failed() || len(r.Outputs) != 2 || string(r.Outputs[0].Data) != "from memory" || string(r.Outputs[1].Data) != "from disk" {
		t.Errorf("memory-first, file-fallback collection: %+v", r)
	}
	if n := FilesCreated() - before; n != 1 {
		t.Errorf("EnsureSandbox counted %d, want 1", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("sandbox the executor asked for was not removed: %d entries left", len(entries))
	}

	// A sandbox the worker made for a staged input is not counted again.
	before = FilesCreated()
	m.Submit(&Task{Func: "shim", Args: map[string]string{"mode": "file"},
		Inputs: []FileSpec{{Name: "in.txt", Data: []byte("x")}}, Outputs: []string{"side.txt"}})
	if r, ok := m.WaitResult(10 * time.Second); !ok || r.Failed() {
		t.Fatalf("task with a staged input: %+v", r)
	}
	if n := FilesCreated() - before; n != 2 {
		t.Errorf("sandbox + one staged input counted %d, want 2", n)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newMaster(t)
	if _, err := m.Submit(&Task{}); err == nil {
		t.Error("task without Func accepted")
	}
}

func TestCacheableInputSentOnce(t *testing.T) {
	m := newMaster(t)
	w := newWorker(t, m.Addr(), "w0", 2)
	sandbox := bytes.Repeat([]byte("software-release;"), 1000)
	const n = 10
	for i := 0; i < n; i++ {
		m.Submit(&Task{
			Func: "cat",
			Inputs: []FileSpec{
				{Name: "sandbox.tar", Data: sandbox, Cacheable: true},
			},
			Outputs: []string{"merged"},
		})
	}
	results := m.Drain(n, 30*time.Second)
	if len(results) != n {
		t.Fatalf("got %d results", len(results))
	}
	var hits, misses int
	for _, r := range results {
		if r.Failed() {
			t.Fatalf("task failed: %s", r.Error)
		}
		if !bytes.Equal(r.Outputs[0].Data, sandbox) {
			t.Fatal("cached input corrupted")
		}
		hits += r.Stats.CacheHits
		misses += r.Stats.CacheMisses
	}
	if misses != 1 {
		t.Errorf("cacheable input transferred %d times, want 1", misses)
	}
	if hits != n-1 {
		t.Errorf("cache hits = %d, want %d", hits, n-1)
	}
	if w.CachedObjects() != 1 {
		t.Errorf("worker cache holds %d objects", w.CachedObjects())
	}
}

func TestEvictionRequeuesTasks(t *testing.T) {
	m := newMaster(t)
	victim := newWorker(t, m.Addr(), "victim", 2)
	m.Submit(&Task{Func: "sleep", Args: map[string]string{"d": "5s"}})
	m.Submit(&Task{Func: "sleep", Args: map[string]string{"d": "5s"}})
	// Wait until both tasks are running on the victim.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().TasksRunning != 2 {
		if time.Now().After(deadline) {
			t.Fatal("tasks never dispatched")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.Evict()
	// A rescuer arrives; requeued tasks must complete there.
	rescuer := newWorker(t, m.Addr(), "rescuer", 2)
	// Speed things up: replace sleeps is impossible, so just wait.
	results := m.Drain(2, 30*time.Second)
	if len(results) != 2 {
		t.Fatalf("got %d results after eviction", len(results))
	}
	for _, r := range results {
		if r.Failed() {
			t.Fatalf("requeued task failed: %+v", r)
		}
		if r.Worker != "rescuer" {
			t.Errorf("task ran on %q", r.Worker)
		}
		if r.Requeues == 0 {
			t.Error("requeue count not recorded")
		}
	}
	if m.Stats().Requeues != 2 {
		t.Errorf("master requeues = %d", m.Stats().Requeues)
	}
	_ = rescuer
}

func TestRetriesExhaustedProducesFailure(t *testing.T) {
	m := newMaster(t)
	m.Submit(&Task{Func: "sleep", Args: map[string]string{"d": "10s"}, MaxRetries: 1})
	// Two successive evictions exceed MaxRetries=1.
	for i := 0; i < 2; i++ {
		w := newWorker(t, m.Addr(), fmt.Sprintf("victim%d", i), 1)
		deadline := time.Now().Add(5 * time.Second)
		for m.Stats().TasksRunning != 1 {
			if time.Now().After(deadline) {
				t.Fatal("task never dispatched")
			}
			time.Sleep(5 * time.Millisecond)
		}
		w.Evict()
		// Wait for the master to process the loss.
		for m.Stats().TasksRunning != 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	r, ok := m.WaitResult(10 * time.Second)
	if !ok {
		t.Fatal("no terminal failure result")
	}
	if !r.Failed() || r.ExitCode != -1 {
		t.Fatalf("result = %+v", r)
	}
}

func TestWaitResultTimeout(t *testing.T) {
	m := newMaster(t)
	start := time.Now()
	_, ok := m.WaitResult(100 * time.Millisecond)
	if ok {
		t.Fatal("result from empty master")
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Error("timeout returned too early")
	}
}

func TestMasterStatsWorkers(t *testing.T) {
	m := newMaster(t)
	w1 := newWorker(t, m.Addr(), "a", 4)
	newWorker(t, m.Addr(), "b", 8)
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().WorkersConnected != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered: %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := m.Stats().CoresConnected; c != 12 {
		t.Errorf("cores = %d", c)
	}
	w1.Close()
	for m.Stats().WorkersConnected != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker departure not noticed: %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestForemanHierarchy(t *testing.T) {
	m := newMaster(t)
	fm, err := NewForeman(m.Addr(), "127.0.0.1:0", "foreman0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	newWorker(t, fm.Addr(), "w0", 2)
	newWorker(t, fm.Addr(), "w1", 2)

	sandbox := bytes.Repeat([]byte("release;"), 500)
	const n = 20
	for i := 0; i < n; i++ {
		m.Submit(&Task{
			Func:    "cat",
			Inputs:  []FileSpec{{Name: "sb", Data: sandbox, Cacheable: true}},
			Outputs: []string{"merged"},
		})
	}
	results := m.Drain(n, 30*time.Second)
	if len(results) != n {
		t.Fatalf("got %d results through foreman", len(results))
	}
	for _, r := range results {
		if r.Failed() {
			t.Fatalf("task failed: %+v", r)
		}
		if !bytes.Equal(r.Outputs[0].Data, sandbox) {
			t.Fatal("output corrupted through foreman")
		}
	}
	if fm.Relayed() != n {
		t.Errorf("foreman relayed %d", fm.Relayed())
	}
	if fm.CachedObjects() != 1 {
		t.Errorf("foreman cache holds %d", fm.CachedObjects())
	}
	// Task IDs must be the master's, not the foreman's internal ones.
	seen := make(map[int64]bool)
	for _, r := range results {
		if r.TaskID < 1 || r.TaskID > n || seen[r.TaskID] {
			t.Fatalf("bad relayed task ID %d", r.TaskID)
		}
		seen[r.TaskID] = true
	}
}

func TestTwoForemen(t *testing.T) {
	m := newMaster(t)
	for i := 0; i < 2; i++ {
		fm, err := NewForeman(m.Addr(), "127.0.0.1:0", fmt.Sprintf("f%d", i), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer fm.Close()
		newWorker(t, fm.Addr(), fmt.Sprintf("w%d", i), 2)
	}
	const n = 40
	for i := 0; i < n; i++ {
		m.Submit(&Task{Func: "echo", Args: map[string]string{"text": "x"}, Outputs: []string{"out.txt"}})
	}
	results := m.Drain(n, 30*time.Second)
	if len(results) != n {
		t.Fatalf("got %d results via two foremen", len(results))
	}
}

func TestMasterCloseUnblocksWaiters(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := m.WaitResult(0)
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	m.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("WaitResult returned a result from a closed master")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitResult not unblocked by Close")
	}
	if _, err := m.Submit(&Task{Func: "echo"}); err == nil {
		t.Error("submit to closed master accepted")
	}
}

func TestExitErrorFormatting(t *testing.T) {
	e := &ExitError{Code: 7}
	if e.Error() != "exit code 7" {
		t.Errorf("Error() = %q", e.Error())
	}
	e2 := &ExitError{Code: 8, Msg: "boom"}
	if e2.Error() != "exit code 8: boom" {
		t.Errorf("Error() = %q", e2.Error())
	}
}

func TestWorkerRequiresPositiveCores(t *testing.T) {
	m := newMaster(t)
	if _, err := NewWorker(m.Addr(), "bad", 0, t.TempDir(), nil); err == nil {
		t.Error("zero-core worker accepted")
	}
}

var _ = atomic.Int64{} // placeholder to keep import if tests evolve

func TestTwoLevelForemanHierarchy(t *testing.T) {
	// master → foreman A → foreman B → workers: "a hierarchy of arbitrary
	// width and depth".
	m := newMaster(t)
	top, err := NewForeman(m.Addr(), "127.0.0.1:0", "top", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	mid, err := NewForeman(top.Addr(), "127.0.0.1:0", "mid", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	newWorker(t, mid.Addr(), "leaf0", 2)
	newWorker(t, mid.Addr(), "leaf1", 2)

	sandbox := bytes.Repeat([]byte("deep"), 2000)
	const n = 12
	for i := 0; i < n; i++ {
		m.Submit(&Task{
			Func:    "cat",
			Inputs:  []FileSpec{{Name: "sb", Data: sandbox, Cacheable: true}},
			Outputs: []string{"merged"},
		})
	}
	results := m.Drain(n, 30*time.Second)
	if len(results) != n {
		t.Fatalf("got %d results through two foreman levels", len(results))
	}
	for _, r := range results {
		if r.Failed() || !bytes.Equal(r.Outputs[0].Data, sandbox) {
			t.Fatalf("bad result: %+v", r)
		}
	}
	// Each level cached the sandbox once.
	if top.CachedObjects() != 1 || mid.CachedObjects() != 1 {
		t.Errorf("cache depth: top=%d mid=%d", top.CachedObjects(), mid.CachedObjects())
	}
}

func TestForemanSurvivesWorkerEviction(t *testing.T) {
	m := newMaster(t)
	fm, err := NewForeman(m.Addr(), "127.0.0.1:0", "fm", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	victim := newWorker(t, fm.Addr(), "victim", 2)
	m.Submit(&Task{Func: "sleep", Args: map[string]string{"d": "3s"}})
	deadline := time.Now().Add(5 * time.Second)
	for fm.DownstreamStats().TasksRunning != 1 {
		if time.Now().After(deadline) {
			t.Fatal("task never reached the downstream worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.Evict()
	newWorker(t, fm.Addr(), "rescuer", 2)
	r, ok := m.WaitResult(30 * time.Second)
	if !ok || r.Failed() {
		t.Fatalf("task lost across foreman after eviction: %+v", r)
	}
	if r.Worker != "rescuer" {
		t.Errorf("completed on %q", r.Worker)
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	m := newMaster(t)
	newWorker(t, m.Addr(), "w0", 1)
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	m.Submit(&Task{
		Func:    "cat",
		Inputs:  []FileSpec{{Name: "big.bin", Data: big}},
		Outputs: []string{"merged"},
	})
	r, ok := m.WaitResult(30 * time.Second)
	if !ok || r.Failed() {
		t.Fatalf("result: %+v", r)
	}
	if !bytes.Equal(r.Outputs[0].Data, big) {
		t.Fatal("8 MiB payload corrupted in transit")
	}
}

func BenchmarkMasterTaskThroughput(b *testing.B) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	reg := Registry{
		"noop": func(ctx *ExecContext) error { return nil },
	}
	for i := 0; i < 4; i++ {
		w, err := NewWorker(m.Addr(), fmt.Sprintf("w%d", i), 4, b.TempDir(), reg)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Submit(&Task{Func: "noop"}); err != nil {
			b.Fatal(err)
		}
	}
	if got := m.Drain(b.N, 120*time.Second); len(got) != b.N {
		b.Fatalf("drained %d/%d", len(got), b.N)
	}
}

func BenchmarkCacheableSandboxDispatch(b *testing.B) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	reg := Registry{"noop": func(ctx *ExecContext) error { return nil }}
	w, err := NewWorker(m.Addr(), "w0", 4, b.TempDir(), reg)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	sandbox := bytes.Repeat([]byte("release"), 64<<10) // 448 KiB
	b.SetBytes(int64(len(sandbox)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Submit(&Task{
			Func:   "noop",
			Inputs: []FileSpec{{Name: "sb", Data: sandbox, Cacheable: true}},
		})
	}
	if got := m.Drain(b.N, 120*time.Second); len(got) != b.N {
		b.Fatalf("drained %d/%d", len(got), b.N)
	}
}
