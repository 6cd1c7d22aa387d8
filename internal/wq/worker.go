package wq

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/retry"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Worker connects to a master, advertises a number of cores,
// and executes the tasks it is sent. All slots share one content cache, the
// Work Queue behaviour the paper relies on: "a single worker can ... run
// multiple tasks simultaneously, sharing a single cache directory, and a
// single connection to the master."
type Worker struct {
	name  string
	cores int
	reg   Registry
	dir   string
	cache *contentCache
	conn  *wire.Conn

	fault      *faultinject.Injector
	stageRetry retry.Policy

	slots   chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	evicted atomic.Bool

	// Result batching: finished tasks queue their results on resCh and a
	// dedicated loop sends whatever is queued as one "results" message —
	// results that finish while a send is on the wire share the next one.
	resCh chan *Result
	done  chan struct{} // closed by run() after in-flight tasks finish
	lost  chan struct{} // closed by run() when the receive loop ends

	tasksRun    atomic.Int64
	tasksFailed atomic.Int64

	// tel and tracer are installed after the receive loop is already
	// running, so publication must be atomic.
	tel    atomic.Pointer[workerTelemetry]
	tracer atomic.Pointer[trace.Tracer]
}

// Trace attaches a tracer: each task run gets a span chained under the
// master's dispatch context carried in Task.Trace (a malformed context
// degrades to a fresh root), with child spans for stage-in, execution,
// and stage-out. The execute span's context is handed to the executor
// so application-level operations (chirp, squid, xrootd) chain under
// it. Call before traffic; nil leaves the worker untraced at zero cost.
func (w *Worker) Trace(tr *trace.Tracer) {
	if tr != nil {
		w.tracer.Store(tr)
	}
}

// workerTelemetry holds the worker's instruments; series are shared by all
// workers in a process (the fleet aggregate), so the zero value stays free
// and instrumenting many workers does not explode cardinality.
type workerTelemetry struct {
	tasks     *telemetry.Counter
	failures  *telemetry.Counter
	cacheHits *telemetry.Counter
	cacheMiss *telemetry.Counter
	stageIn   *telemetry.Histogram
	execTime  *telemetry.Histogram
	slotsBusy *telemetry.Gauge
	planeIn   *telemetry.Counter // lobster_bytes_total{wq_worker,in}
	planeOut  *telemetry.Counter // lobster_bytes_total{wq_worker,out}
}

// noWorkerTel is the disabled instrument set: every field nil, every
// call a nil-receiver no-op.
var noWorkerTel workerTelemetry

// telemetry returns the installed instruments, or the free zero set.
func (w *Worker) telemetry() *workerTelemetry {
	if t := w.tel.Load(); t != nil {
		return t
	}
	return &noWorkerTel
}

// Instrument registers the worker's (process-aggregate) metric series on
// reg. A nil registry leaves the worker uninstrumented at zero cost.
func (w *Worker) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	w.tel.Store(&workerTelemetry{
		tasks: reg.Counter("lobster_wq_worker_tasks_total",
			"Tasks executed by workers in this process."),
		failures: reg.Counter("lobster_wq_worker_failures_total",
			"Tasks that failed locally on workers in this process."),
		cacheHits: reg.Counter("lobster_wq_worker_cache_hits_total",
			"Cacheable inputs satisfied from the worker content cache."),
		cacheMiss: reg.Counter("lobster_wq_worker_cache_misses_total",
			"Cacheable inputs that had to arrive with data."),
		stageIn: reg.Histogram("lobster_wq_worker_stage_in_seconds",
			"Sandbox stage-in time per task.", nil),
		execTime: reg.Histogram("lobster_wq_worker_exec_seconds",
			"Executor run time per task.", nil),
		slotsBusy: reg.Gauge("lobster_wq_worker_slots_busy",
			"Core slots currently executing tasks across workers in this process."),
		planeIn:  reg.Bytes("wq_worker", telemetry.DirIn),
		planeOut: reg.Bytes("wq_worker", telemetry.DirOut),
	})
}

// WorkerOptions configures NewWorkerOpts beyond the required plumbing.
type WorkerOptions struct {
	// Fault, when non-nil, wraps the worker's master connection so its
	// reads and writes consult the fault plane under component
	// "wq_worker", and arms Check hooks in stage-in and stage-out
	// (ops "stage_in" / "stage_out").
	Fault *faultinject.Injector
	// StageRetry bounds retries of individual sandbox file writes and
	// reads during staging. The zero Policy keeps the old behaviour:
	// first error fails the task.
	StageRetry retry.Policy
}

// NewWorker connects a worker to the master at addr. dir is the worker's
// scratch directory (sandboxes and cache live beneath it). The registry maps
// the executor names tasks will reference.
func NewWorker(addr, name string, cores int, dir string, reg Registry) (*Worker, error) {
	return NewWorkerOpts(addr, name, cores, dir, reg, WorkerOptions{})
}

// NewWorkerOpts is NewWorker with fault-plane and staging-retry options.
func NewWorkerOpts(addr, name string, cores int, dir string, reg Registry, opts WorkerOptions) (*Worker, error) {
	if cores < 1 {
		return nil, fmt.Errorf("wq: worker needs at least one core")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wq: worker dir: %w", err)
	}
	raw, err := net.DialTimeout("tcp", addr, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("wq: worker dialing %s: %w", addr, err)
	}
	raw = opts.Fault.Conn("wq_worker", raw)
	w := &Worker{
		name:       name,
		cores:      cores,
		reg:        reg,
		dir:        dir,
		cache:      newContentCache(),
		conn:       newConn(raw),
		fault:      opts.Fault,
		stageRetry: opts.StageRetry,
		slots:      make(chan struct{}, cores),
		resCh:      make(chan *Result, cores+batchMax),
		done:       make(chan struct{}),
		lost:       make(chan struct{}),
	}
	if err := w.conn.SendFrame(&message{Type: "hello", Name: name, Cores: cores}); err != nil {
		return nil, err
	}
	w.wg.Add(2)
	go w.run()
	go w.resultLoop()
	return w, nil
}

// Name returns the worker's name.
func (w *Worker) Name() string { return w.name }

// TasksRun returns the number of tasks executed (including failures).
func (w *Worker) TasksRun() int64 { return w.tasksRun.Load() }

// TasksFailed returns the number of tasks that failed locally.
func (w *Worker) TasksFailed() int64 { return w.tasksFailed.Load() }

// CachedObjects returns the number of cacheable inputs held.
func (w *Worker) CachedObjects() int { return w.cache.len() }

// Close disconnects gracefully after in-flight tasks finish sending.
func (w *Worker) Close() error {
	if w.closed.Swap(true) {
		return nil
	}
	w.conn.Fail(nil)
	w.wg.Wait()
	return nil
}

// Evict abruptly severs the connection, abandoning running tasks — the
// behaviour of a batch-system preemption. The master will requeue.
func (w *Worker) Evict() {
	w.evicted.Store(true)
	w.Close()
}

// run reads tasks until the connection dies. Then lost closes, so the
// tasks still running see ExecContext.Err and stage nothing out. The
// deferred order matters: in-flight tasks finish (and queue their
// results) before done closes, so the result loop flushes everything
// before it exits.
func (w *Worker) run() {
	defer w.wg.Done()
	defer close(w.done)
	var taskWG sync.WaitGroup
	defer taskWG.Wait()
	var msg message
	for recv(w.conn, &msg) == nil {
		if msg.Type != "tasks" {
			continue
		}
		// Slice order matters: startTask resolves cacheable inputs as it
		// goes, preserving the data-before-hash-only invariant within the
		// batch.
		for _, t := range msg.Tasks {
			if t != nil {
				w.startTask(t, &taskWG)
			}
		}
	}
	close(w.lost)
}

// startTask resolves a task's inputs and launches it on a free slot,
// blocking while all cores are busy (the worker's natural backpressure on
// the receive loop).
func (w *Worker) startTask(t *Task, taskWG *sync.WaitGroup) {
	// Resolve cacheable inputs synchronously, in arrival order: the
	// master sends each cacheable payload once per connection, so a
	// later hash-only reference must decode after the data-bearing
	// task has populated the cache.
	hits, misses, decodeErr := decodeInputs(t, w.cache)
	tel := w.telemetry()
	tel.cacheHits.Add(int64(hits))
	tel.cacheMiss.Add(int64(misses))
	taskWG.Add(1)
	w.slots <- struct{}{}
	go func() {
		defer taskWG.Done()
		defer func() { <-w.slots }()
		tel.slotsBusy.Add(1)
		defer tel.slotsBusy.Add(-1)
		res := w.execute(t, hits, misses, decodeErr)
		if w.evicted.Load() {
			return // evicted mid-task: never report
		}
		w.resCh <- res
	}()
}

// resultLoop sends finished results the moment resCh runs dry: it never
// waits for companions, because a sub-millisecond timer is rounded up to a
// millisecond by an idle process's netpoller and a slot cannot take its
// next task until the master has seen this one. Batches form by
// themselves — whatever finishes while a send is on the wire rides the
// next message. A failed send has broken the connection (SendFrame): the
// master requeues what this worker held, the receive loop ends on the
// closed socket, and every later send fails at once.
func (w *Worker) resultLoop() {
	defer w.wg.Done()
	pending := make([]*Result, 0, batchMax)
	out := message{Type: "results"}
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if !w.evicted.Load() {
			out.Results = pending
			w.conn.SendFrame(&out)
		}
		clear(pending)
		pending = pending[:0]
	}
	for exiting := false; !exiting; {
		select {
		case r := <-w.resCh:
			pending = append(pending, r)
		case <-w.done:
			// Every in-flight task has queued its result by now.
			exiting = true
		}
		for yielded := false; ; {
			select {
			case r := <-w.resCh:
				if pending = append(pending, r); len(pending) == batchMax {
					flush()
				}
				continue
			default:
			}
			// The queue is dry. While more slots are held than results are
			// in hand, yield once — a reschedule, not a timer — so tasks
			// finishing this instant make this message instead of the next.
			if yielded || len(w.slots) <= len(pending) {
				break
			}
			yielded = true
			runtime.Gosched()
		}
		flush()
	}
}

// execute stages inputs, runs the executor, and collects outputs. Cache
// resolution already happened in the receive loop; its outcome is passed in.
func (w *Worker) execute(t *Task, cacheHits, cacheMisses int, decodeErr error) *Result {
	res := &Result{TaskID: t.ID, Tag: t.Tag, Worker: w.name}
	res.Stats.Times.Started = time.Now()
	tracer := w.tracer.Load()
	wireCtx, _ := trace.Parse(t.Trace)
	run := tracer.Start(wireCtx, "worker", "run")
	run.Attr("worker", w.name)
	run.AttrInt("task_id", t.ID)
	var siSpan, exSpan, soSpan *trace.Span
	defer func() {
		res.Stats.Times.Finished = time.Now()
		w.tasksRun.Add(1)
		tel := w.telemetry()
		tel.tasks.Inc()
		if res.Failed() {
			w.tasksFailed.Add(1)
			tel.failures.Inc()
		}
		tel.stageIn.Observe(res.Stats.StageIn.Seconds())
		tel.execTime.Observe(res.Stats.Exec.Seconds())
		// Close whatever stage span a failure return left open (End on
		// an already-ended or nil span is a no-op).
		siSpan.End()
		exSpan.End()
		soSpan.End()
		run.AttrInt("exit_code", int64(res.ExitCode))
		run.End()
	}()

	fail := func(code int, format string, args ...any) *Result {
		res.ExitCode = code
		res.Error = fmt.Sprintf(format, args...)
		return res
	}

	// Stage in.
	stageStart := time.Now()
	siSpan = tracer.Start(run.Context(), "worker", "stage_in")
	res.Stats.CacheHits = cacheHits
	res.Stats.CacheMisses = cacheMisses
	siSpan.AttrInt("cache_hits", int64(cacheHits))
	siSpan.AttrInt("cache_misses", int64(cacheMisses))
	if decodeErr != nil {
		return fail(170, "stage-in: %v", decodeErr)
	}
	// The sandbox is created lazily: a task that stages no input files
	// never touches the filesystem here — profiling showed sandbox
	// mkdir/rmdir dominating the per-task syscall budget for file-less
	// tasks. Executors that write into it call ctx.EnsureSandbox; declared
	// outputs handed over with ctx.SetOutput need no sandbox at all.
	sandbox := filepath.Join(w.dir, fmt.Sprintf("task-%d", t.ID))
	held := &heldState{sandbox: len(t.Inputs) > 0}
	if held.sandbox {
		filesCreated.Add(1 + int64(len(t.Inputs)))
		if err := os.MkdirAll(sandbox, 0o755); err != nil {
			return fail(170, "stage-in: creating sandbox: %v", err)
		}
	}
	defer func() {
		if held.sandbox {
			os.RemoveAll(sandbox)
		}
	}()
	// Files land in parallel under a bounded group: a multi-input task
	// overlaps its sandbox writes instead of paying them end to end.
	// Each file is staged under the retry policy with the fault hook
	// inside the attempt, so injected staging faults exercise the same
	// recovery path as a flaky local disk.
	if err := stageGroup(len(t.Inputs), stageParallelism, func(i int) error {
		f := t.Inputs[i]
		dst := filepath.Join(sandbox, filepath.FromSlash(f.Name))
		return w.stageRetry.Do(func() error {
			if err := w.fault.Check("wq_worker", "stage_in"); err != nil {
				return err
			}
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return err
			}
			return os.WriteFile(dst, f.Data, 0o644)
		})
	}); err != nil {
		return fail(170, "stage-in: %v", err)
	}
	for _, f := range t.Inputs {
		res.Stats.BytesIn += int64(len(f.Data))
	}
	w.telemetry().planeIn.Add(res.Stats.BytesIn)
	res.Stats.StageIn = time.Since(stageStart)
	siSpan.AttrInt("bytes", res.Stats.BytesIn)
	siSpan.End()

	// Execute.
	exec, ok := w.reg[t.Func]
	if !ok {
		return fail(127, "unknown executor %q", t.Func)
	}
	execStart := time.Now()
	exSpan = tracer.Start(run.Context(), "worker", "execute")
	execTrace := exSpan.Context()
	if !execTrace.Valid() {
		// Tracing off locally: still forward the upstream context so a
		// partially-instrumented stack keeps one trace.
		execTrace = wireCtx
	}
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("executor panicked: %v", p)
			}
		}()
		return exec(&ExecContext{
			Task: t, Sandbox: sandbox, WorkerName: w.name,
			Trace: execTrace, Tracer: tracer, held: held, lost: w.lost,
		})
	}()
	res.Stats.Exec = time.Since(execStart)
	exSpan.End()
	if err != nil {
		// Best-effort output collection on failure: diagnostic outputs such
		// as the wrapper report must reach the master even when the task
		// fails ("a record of ... each segment is returned back").
		for _, name := range t.Outputs {
			data, rerr := held.collect(sandbox, name)
			if rerr == nil {
				res.Outputs = append(res.Outputs, FileSpec{Name: name, Data: data})
				res.Stats.BytesOut += int64(len(data))
			}
		}
		if ee, ok := err.(*ExitError); ok {
			return fail(ee.Code, "%s", ee.Error())
		}
		return fail(1, "%v", err)
	}

	// Stage out: outputs are read in parallel under the same bounded
	// group, then appended in declaration order so results stay
	// deterministic.
	outStart := time.Now()
	soSpan = tracer.Start(run.Context(), "worker", "stage_out")
	collected := make([][]byte, len(t.Outputs))
	if err := stageGroup(len(t.Outputs), stageParallelism, func(i int) error {
		name := t.Outputs[i]
		return w.stageRetry.Do(func() error {
			if err := w.fault.Check("wq_worker", "stage_out"); err != nil {
				return err
			}
			data, rerr := held.collect(sandbox, name)
			if rerr != nil {
				// A declared output that never appeared will not appear on
				// a retry either — the executor has already finished.
				return retry.Permanent(rerr)
			}
			collected[i] = data
			return nil
		})
	}); err != nil {
		return fail(171, "stage-out: declared output missing: %v", err)
	}
	for i, name := range t.Outputs {
		res.Outputs = append(res.Outputs, FileSpec{Name: name, Data: collected[i]})
		res.Stats.BytesOut += int64(len(collected[i]))
	}
	w.telemetry().planeOut.Add(res.Stats.BytesOut)
	res.Stats.StageOut = time.Since(outStart)
	soSpan.AttrInt("bytes", res.Stats.BytesOut)
	soSpan.End()
	return res
}

// stageParallelism bounds concurrent file operations within one task's
// stage-in or stage-out. Small on purpose: staging overlaps I/O waits,
// it must not become a per-task thundering herd on the local disk.
const stageParallelism = 4

// stageGroup runs fn(0..n-1) with at most limit goroutines in flight
// and returns the first error. All launched calls run to completion
// either way, so fn's writes are never abandoned mid-file.
func stageGroup(n, limit int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fn(0)
	}
	sem := make(chan struct{}, limit)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem }()
			errs <- fn(i)
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
