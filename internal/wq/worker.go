package wq

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Worker connects to a master, advertises a number of cores,
// and executes the tasks it is sent: "a single worker can ... run multiple
// tasks simultaneously, sharing a single cache directory, and a single
// connection to the master." The one connection is this one; the shared
// cache directory is parrot's alien cache, which the executors reach, not
// wq, since wq moves no files.
type Worker struct {
	name  string
	cores int
	reg   Registry
	dir   string
	conn  *wire.Conn

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
// degrades to a fresh root), with a child span for the execution. The
// execute span's context is handed to the executor so application-level
// operations (chirp, squid, xrootd) chain under it. Call before traffic;
// nil leaves the worker untraced at zero cost.
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
	execTime  *telemetry.Histogram
	slotsBusy *telemetry.Gauge
	planeOut  *telemetry.Counter // lobster_bytes_total{wq_worker,out}: result-frame bytes
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
		execTime: reg.Histogram("lobster_wq_worker_exec_seconds",
			"Executor run time per task.", nil),
		slotsBusy: reg.Gauge("lobster_wq_worker_slots_busy",
			"Core slots currently executing tasks across workers in this process."),
		planeOut: reg.Bytes("wq_worker", telemetry.DirOut),
	})
}

// NewWorker connects a worker to the master at addr. dir is the worker's
// scratch directory (the sandboxes executors ask for live beneath it). The
// registry maps the executor names tasks will reference. A non-nil fault
// wraps the master connection so its reads and writes consult the fault
// plane under component "wq_worker"; nil leaves it fault-free.
func NewWorker(addr, name string, cores int, dir string, reg Registry, fault *faultinject.Injector) (*Worker, error) {
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
	w := &Worker{
		name:  name,
		cores: cores,
		reg:   reg,
		dir:   dir,
		conn:  newConn(fault.Conn("wq_worker", raw)),
		slots: make(chan struct{}, cores),
		resCh: make(chan *Result, cores+batchMax),
		done:  make(chan struct{}),
		lost:  make(chan struct{}),
	}
	if _, err := w.conn.SendFrame(&message{Type: "hello", Name: name, Cores: cores}); err != nil {
		return nil, err
	}
	w.wg.Add(2)
	go w.run()
	go w.resultLoop()
	return w, nil
}

// TasksRun returns the number of tasks executed (including failures).
func (w *Worker) TasksRun() int64 { return w.tasksRun.Load() }

// TasksFailed returns the number of tasks that failed locally.
func (w *Worker) TasksFailed() int64 { return w.tasksFailed.Load() }

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
	for {
		if _, err := recv(w.conn, &msg); err != nil {
			break
		}
		if msg.Type != "tasks" {
			continue
		}
		for _, t := range msg.Tasks {
			if t != nil {
				w.startTask(t, &taskWG)
			}
		}
	}
	close(w.lost)
}

// startTask launches a task on a free slot, blocking while all cores are
// busy (the worker's natural backpressure on the receive loop).
func (w *Worker) startTask(t *Task, taskWG *sync.WaitGroup) {
	tel := w.telemetry()
	taskWG.Add(1)
	w.slots <- struct{}{}
	go func() {
		defer taskWG.Done()
		defer func() { <-w.slots }()
		tel.slotsBusy.Add(1)
		defer tel.slotsBusy.Add(-1)
		res := w.execute(t)
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
			n, _ := w.conn.SendFrame(&out)
			w.telemetry().planeOut.Add(int64(n))
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

// execute runs the executor and returns its result with the report it
// handed over.
func (w *Worker) execute(t *Task) *Result {
	res := &Result{TaskID: t.ID, Tag: t.Tag, Worker: w.name}
	res.Stats.Times.Started = time.Now()
	tracer := w.tracer.Load()
	wireCtx, _ := trace.Parse(t.Trace)
	run := tracer.Start(wireCtx, "worker", "run")
	run.Attr("worker", w.name)
	run.AttrInt("task_id", t.ID)
	var exSpan *trace.Span
	defer func() {
		res.Stats.Times.Finished = time.Now()
		w.tasksRun.Add(1)
		tel := w.telemetry()
		tel.tasks.Inc()
		if res.Failed() {
			w.tasksFailed.Add(1)
			tel.failures.Inc()
		}
		tel.execTime.Observe(res.Stats.Exec.Seconds())
		// Close the execute span a failure return left open (End on an
		// already-ended or nil span is a no-op).
		exSpan.End()
		run.AttrInt("exit_code", int64(res.ExitCode))
		run.End()
	}()

	fail := func(code int, format string, args ...any) *Result {
		res.ExitCode = code
		res.Error = fmt.Sprintf(format, args...)
		return res
	}

	// A task carries its arguments and nothing else, so there is nothing
	// to stage in. The sandbox is executor scratch, its path built and the
	// directory made only if the executor asks for them (ctx.Sandbox,
	// ctx.EnsureSandbox): profiling showed sandbox mkdir/rmdir dominating
	// the per-task syscall budget.
	ctx := &ExecContext{Task: t, Dir: w.dir, WorkerName: w.name, Tracer: tracer, held: &heldState{}, lost: w.lost}
	defer func() {
		if ctx.held.sandbox {
			os.RemoveAll(ctx.Sandbox())
		}
	}()

	// Execute.
	exec, ok := w.reg[t.Func]
	if !ok {
		return fail(127, "unknown executor %q", t.Func)
	}
	execStart := time.Now()
	exSpan = tracer.Start(run.Context(), "worker", "execute")
	ctx.Trace = exSpan.Context()
	if !ctx.Trace.Valid() {
		// Tracing off locally: still forward the upstream context so a
		// partially-instrumented stack keeps one trace.
		ctx.Trace = wireCtx
	}
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("executor panicked: %v", p)
			}
		}()
		return exec(ctx)
	}()
	res.Stats.Exec = time.Since(execStart)
	exSpan.End()
	// The report rides the result on failure too: "a record of ... each
	// segment is returned back" whatever the outcome.
	res.Report = ctx.held.report
	if err != nil {
		if ee, ok := err.(*ExitError); ok {
			return fail(ee.Code, "%s", ee.Error())
		}
		return fail(1, "%v", err)
	}
	return res
}
