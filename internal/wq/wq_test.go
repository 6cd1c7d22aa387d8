package wq

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"lobster/internal/wrapper"
)

// testArgs is what the test executors read, carried in two string
// fields of a task's wrapper.Args.
type testArgs struct {
	Text string // echo: the reported segment's name (Args.LFN)
	Mode string // shim: which path to take (Args.Mode)
}

// argsOf builds a task's argument record, as a submitter does.
func argsOf(a testArgs) *wrapper.Args {
	return &wrapper.Args{LFN: a.Text, Mode: a.Mode}
}

// argsIn reads the record a test executor was handed.
func argsIn(ctx *ExecContext) testArgs {
	if a := ctx.Task.Args; a != nil {
		return testArgs{Text: a.LFN, Mode: a.Mode}
	}
	return testArgs{}
}

// echoReport is the report the echo executor hands over: its text as the
// report's error.
func echoReport(text string) *wrapper.Report { return &wrapper.Report{Error: text} }

// testRegistry returns executors used across the tests.
func testRegistry() Registry {
	return Registry{
		"echo": func(ctx *ExecContext) error {
			ctx.SetReport(echoReport(argsIn(ctx).Text))
			return nil
		},
		// A rescuer's hold returns at once; a victim's (holdWorker)
		// blocks until the test releases it.
		"hold": func(ctx *ExecContext) error { return nil },
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
	w, err := NewWorker(addr, name, cores, t.TempDir(), testRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// holdWorker starts a victim: a worker whose "hold" tasks block until
// release is called, so they are still running when it is evicted, for
// as long as the test wants and no longer.
func holdWorker(t *testing.T, addr, name string, cores int) (w *Worker, release func()) {
	t.Helper()
	held := make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	reg := testRegistry()
	reg["hold"] = func(*ExecContext) error { <-held; return nil }
	w, err := NewWorker(addr, name, cores, t.TempDir(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { release(); w.Close() })
	return w, release
}

// evictHolding evicts the victim w and returns once the master has taken
// the loss (lost reports it) and Evict has returned. Evict waits for the
// victim's running tasks, so it runs on its own goroutine until the
// master's count shows the loss and release lets the tasks end.
func evictHolding(t *testing.T, m *Master, w *Worker, release func(), lost func(MasterStats) bool) {
	t.Helper()
	evicted := make(chan struct{})
	go func() {
		w.Evict()
		close(evicted)
	}()
	waitStats(t, m, "the master never took the loss", lost)
	release()
	<-evicted
}

// waitStats polls the master's counters until cond holds, failing after
// 10 s.
func waitStats(t *testing.T, m *Master, what string, cond func(MasterStats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(m.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %+v", what, m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func running(n int) func(MasterStats) bool {
	return func(s MasterStats) bool { return s.TasksRunning == n }
}

func requeued(n int) func(MasterStats) bool {
	return func(s MasterStats) bool { return s.Requeues == n }
}

func TestSingleTaskRoundTrip(t *testing.T) {
	m := newMaster(t)
	newWorker(t, m.Addr(), "w0", 2)
	id, err := m.Submit(&Task{
		Func: "echo",
		Args: argsOf(testArgs{Text: "hello lobster"}),
		Tag:  "analysis",
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
	if !reflect.DeepEqual(r.Report, echoReport("hello lobster")) {
		t.Fatalf("report = %+v", r.Report)
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

func TestManyTasksManyWorkers(t *testing.T) {
	m := newMaster(t)
	for i := 0; i < 4; i++ {
		newWorker(t, m.Addr(), fmt.Sprintf("w%d", i), 4)
	}
	const n = 100
	for i := 0; i < n; i++ {
		m.Submit(&Task{Func: "echo", Args: argsOf(testArgs{Text: strconv.Itoa(i)})})
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
	m.Submit(&Task{Func: "echo", Args: argsOf(testArgs{Text: "alive"})})
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

// TestReportRidesResult: a report handed over with SetReport reaches
// WaitResult without a sandbox ever existing — through a copy of the
// context (a tracing shim re-tagging it), and on a failed exit too. A
// sandbox file named report.json is no report: wq moves no files.
func TestReportRidesResult(t *testing.T) {
	m := newMaster(t)
	dir := t.TempDir()
	want := echoReport("from the executor")
	inner := func(ctx *ExecContext) error {
		mode := argsIn(ctx).Mode
		if mode != "file" {
			ctx.SetReport(want)
		}
		switch mode {
		case "fail":
			return &ExitError{Code: 42, Msg: "after the report"}
		case "file":
			for i := 0; i < 2; i++ { // the second call finds it made
				if err := ctx.EnsureSandbox(); err != nil {
					return err
				}
			}
			return os.WriteFile(filepath.Join(ctx.Sandbox(), "report.json"), []byte(`{"durations":[]}`), 0o644)
		}
		return nil
	}
	w, err := NewWorker(m.Addr(), "w0", 1, dir, Registry{"shim": func(ctx *ExecContext) error {
		retagged := *ctx
		retagged.WorkerName = "shim"
		return inner(&retagged)
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	run := func(mode string) *Result {
		t.Helper()
		m.Submit(&Task{Func: "shim", Args: argsOf(testArgs{Mode: mode})})
		r, ok := m.WaitResult(10 * time.Second)
		if !ok {
			t.Fatal("no result")
		}
		return r
	}

	before := FilesCreated()
	if r := run("ok"); r.Failed() || !reflect.DeepEqual(r.Report, want) {
		t.Errorf("success path: %+v, report %+v", r, r.Report)
	}
	if r := run("fail"); r.ExitCode != 42 || !reflect.DeepEqual(r.Report, want) {
		t.Errorf("failure path lost the report: %+v, report %+v", r, r.Report)
	}
	if n := FilesCreated() - before; n != 0 {
		t.Errorf("two tasks handing over only a report created %d files and directories, want 0", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("worker dir holds %d entries after tasks that never asked for a sandbox", len(entries))
	}

	if r := run("file"); r.Failed() || r.Report != nil {
		t.Errorf("a sandbox file named report.json: %+v, report %+v; want success and no report", r, r.Report)
	}
	if n := FilesCreated() - before; n != 1 {
		t.Errorf("EnsureSandbox counted %d, want 1", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("sandbox the executor asked for was not removed: %d entries left", len(entries))
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newMaster(t)
	if _, err := m.Submit(&Task{}); err == nil {
		t.Error("task without Func accepted")
	}
}

func TestEvictionRequeuesTasks(t *testing.T) {
	m := newMaster(t)
	victim, release := holdWorker(t, m.Addr(), "victim", 2)
	m.Submit(&Task{Func: "hold"})
	m.Submit(&Task{Func: "hold"})
	// Wait until both tasks are running on the victim.
	waitStats(t, m, "tasks never dispatched", running(2))
	evictHolding(t, m, victim, release, requeued(2))
	// A rescuer arrives; requeued tasks must complete there.
	newWorker(t, m.Addr(), "rescuer", 2)
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
}

func TestRetriesExhaustedProducesFailure(t *testing.T) {
	m := newMaster(t)
	m.Submit(&Task{Func: "hold", MaxRetries: 1})
	// Two successive evictions exceed MaxRetries=1.
	for i := 0; i < 2; i++ {
		w, release := holdWorker(t, m.Addr(), fmt.Sprintf("victim%d", i), 1)
		waitStats(t, m, "task never dispatched", running(1))
		// Wait for the master to process the loss.
		evictHolding(t, m, w, release, running(0))
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

// TestWaitResultTakesQueuedResultWithoutTimer: a result that is already
// waiting is taken with no allocation, so no timer is armed for it.
func TestWaitResultTakesQueuedResultWithoutTimer(t *testing.T) {
	m := newLocalMaster()
	r := &Result{TaskID: 1}
	allocs := testing.AllocsPerRun(100, func() {
		m.res.push(r)
		if got, ok := m.WaitResult(time.Minute); !ok || got != r {
			t.Fatalf("WaitResult = %v, %v", got, ok)
		}
	})
	if allocs != 0 {
		t.Errorf("taking a queued result allocated %v times, want 0", allocs)
	}
}

// TestWaitResultReusesStoppedTimeout: the timeout a wait stopped before
// it fired serves the next wait, which still times out on time; one that
// fired is never handed to another wait, whose result it would expire.
func TestWaitResultReusesStoppedTimeout(t *testing.T) {
	m := newLocalMaster()
	pushLater := func() {
		time.AfterFunc(20*time.Millisecond, func() { m.res.push(&Result{TaskID: 1}) })
	}
	if _, ok := m.WaitResult(time.Millisecond); ok || m.res.spare != nil {
		t.Fatalf("a wait on no result: ok %v, spare %v; want a timeout that is not kept", ok, m.res.spare)
	}
	pushLater()
	if _, ok := m.WaitResult(time.Minute); !ok || m.res.spare == nil {
		t.Fatalf("a wait for a later result: ok %v, spare %v; want the result and a kept timeout", ok, m.res.spare)
	}
	spare := m.res.spare
	start := time.Now()
	if _, ok := m.WaitResult(30 * time.Millisecond); ok || time.Since(start) < 25*time.Millisecond {
		t.Fatalf("a wait on the kept timeout returned %v after %v, want a timeout after 30ms", ok, time.Since(start))
	}
	pushLater()
	if r, ok := m.WaitResult(time.Minute); !ok || r == nil || m.res.spare == spare {
		t.Fatalf("a wait after a fired timeout = %v, %v; want its result, on a new timeout", r, ok)
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
	if _, err := NewWorker(m.Addr(), "bad", 0, t.TempDir(), nil, nil); err == nil {
		t.Error("zero-core worker accepted")
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
		w, err := NewWorker(m.Addr(), fmt.Sprintf("w%d", i), 4, b.TempDir(), reg, nil)
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

// TestExecContextErrAfterMasterLost: a master that drops the connection
// while an executor blocks leaves that attempt abandoned, and the
// executor sees so through Err once it resumes.
func TestExecContextErrAfterMasterLost(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	entered, resume := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	reg := Registry{"block": func(ctx *ExecContext) error {
		errs <- ctx.Err()
		close(entered)
		<-resume
		errs <- ctx.Err()
		return nil
	}}
	w, err := NewWorker(lis.Addr().String(), "w0", 1, t.TempDir(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	nc, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc)
	var hello message
	if _, err := recv(c, &hello); err != nil || hello.Type != "hello" {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	if _, err := c.SendFrame(&message{Type: "tasks", Tasks: []*Task{{ID: 1, Func: "block"}}}); err != nil {
		t.Fatal(err)
	}
	<-entered
	c.Fail(nil) // the master drops the worker
	select {
	case <-w.lost:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker's receive loop outlived its connection")
	}
	close(resume)
	if err := <-errs; err != nil {
		t.Fatalf("Err while connected = %v, want nil", err)
	}
	if err := <-errs; err == nil {
		t.Fatal("Err after the master dropped the worker = nil")
	}
	if err := (*ExecContext)(nil).Err(); err != nil {
		t.Fatalf("nil context Err = %v", err)
	}
}

// TestDispatchFIFO: tasks queued before any worker connects run in
// submission order on a one-core worker, the one queue of ready tasks
// the paper's master hands out oldest first.
func TestDispatchFIFO(t *testing.T) {
	m := newMaster(t)
	const n = 200
	ids := make([]int64, n)
	for i := range ids {
		id, err := m.Submit(&Task{Func: "record"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var mu sync.Mutex
	var ran []int64
	reg := Registry{"record": func(ctx *ExecContext) error {
		mu.Lock()
		ran = append(ran, ctx.Task.ID)
		mu.Unlock()
		return nil
	}}
	w, err := NewWorker(m.Addr(), "w0", 1, t.TempDir(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := m.Drain(n, 30*time.Second); len(got) != n {
		t.Fatalf("drained %d/%d results", len(got), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range ids {
		if ran[i] != id {
			t.Fatalf("run %d was task %d, want %d: dispatch is not FIFO", i, ran[i], id)
		}
	}
}
