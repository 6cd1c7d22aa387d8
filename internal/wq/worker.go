package wq

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
	"lobster/internal/wrapper"
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

	wg      sync.WaitGroup
	closed  atomic.Bool
	evicted atomic.Bool

	// A slot record travels free → work → resCh → free: the receive loop
	// loads a task into a free one and queues it on work, one of cores
	// slot goroutines runs it and queues it on resCh, and the result loop
	// sends whatever is queued as one "results" message — results that
	// finish while a send is on the wire share the next one — and frees
	// the slots once that frame is written (DESIGN.md section 17, twelfth
	// turn). Each channel holds up to cores slots, all there are, so only
	// the receive loop's take from free ever waits.
	free  chan *slot
	work  chan *slot
	resCh chan *slot
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
		free:  make(chan *slot, cores),
		work:  make(chan *slot, cores),
		resCh: make(chan *slot, cores),
		done:  make(chan struct{}),
		lost:  make(chan struct{}),
	}
	slots := make([]slot, cores)
	for i := range slots {
		w.free <- &slots[i]
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

// slot is one of the worker's cores: the one record every task it runs
// lives in, from the task frame that brings the task to the result frame
// that carries its result. Between the two it belongs to one goroutine at
// a time, handed on by channel: the receive loop loads it, a slot
// goroutine runs it, the result loop sends it and frees it.
type slot struct {
	task Task
	args wrapper.Args
	res  Result
	ctx  ExecContext
	held heldState
}

// load copies t, decoded into the receive loop's reused records, into the
// slot, whose task it stays until the slot is freed.
func (s *slot) load(t *Task) {
	s.task = *t
	if t.Args != nil {
		s.args = *t.Args
		s.task.Args = &s.args
	}
}

// taskFrame is the receive loop's decode target, reused frame after
// frame: a record per task the largest frame so far carried (at most
// batchMax), each zeroed before the next frame is read into it, so that
// no field of an earlier task survives into a later one.
type taskFrame struct {
	msg  message
	recs []taskRec
	ptrs []*Task
}

type taskRec struct {
	task Task
	args wrapper.Args
}

// read reads the next message into f.msg. Its tasks are f's records until
// the next read: load copies what a slot needs out of them. Every record
// is handed to the decoder with its Args in place, so a task that carries
// none is told apart afterwards by a zero record and goes to its executor
// with nil Args, as the frame said.
func (f *taskFrame) read(c *wire.Conn) error {
	f.ptrs = f.ptrs[:0]
	for i := range f.recs {
		r := &f.recs[i]
		r.args = wrapper.Args{}
		r.task = Task{Args: &r.args}
		f.ptrs = append(f.ptrs, &r.task)
	}
	f.msg = message{Tasks: f.ptrs[:0]}
	_, err := c.ReadFrame(maxFrame, &f.msg)
	for _, t := range f.msg.Tasks {
		if t != nil {
			t.Args = argsOrNil(t.Args)
		}
	}
	// A frame with more tasks than records decoded the rest into fresh
	// ones; the next frame that size finds records waiting, up to the
	// batchMax tasks a master sends in one, so that a peer's oversized
	// frame cannot make the worker keep more.
	if n := min(len(f.msg.Tasks), batchMax); n > len(f.recs) {
		f.recs = append(f.recs, make([]taskRec, n-len(f.recs))...)
	}
	return err
}

// argsOrNil is a, or nil for a zero record: to every executor the zero
// record and none both mean its defaults.
func argsOrNil(a *wrapper.Args) *wrapper.Args {
	if a == nil || reflect.ValueOf(a).Elem().IsZero() {
		return nil
	}
	return a
}

// run reads tasks until the connection dies, handing each to a free slot
// and blocking while every slot is busy (the worker's natural
// backpressure on the receive loop). Then lost closes, so the tasks still
// running see ExecContext.Err and stage nothing out. The order after that
// matters: the slot goroutines finish their tasks (and queue their
// results) before done closes, so the result loop flushes everything
// before it exits.
func (w *Worker) run() {
	defer w.wg.Done()
	var slots sync.WaitGroup
	slots.Add(w.cores)
	for range w.cores {
		go func() {
			defer slots.Done()
			w.serveSlot()
		}()
	}
	var f taskFrame
	for {
		if err := f.read(w.conn); err != nil {
			break
		}
		if f.msg.Type != "tasks" {
			continue
		}
		for _, t := range f.msg.Tasks {
			if t != nil {
				s := <-w.free
				s.load(t)
				w.work <- s
			}
		}
	}
	close(w.lost)
	close(w.work)
	slots.Wait()
	close(w.done)
}

// serveSlot runs the tasks queued on work, one at a time, and queues each
// slot for the result loop, or frees it at once when the worker was
// evicted mid-task: an evicted worker never reports.
func (w *Worker) serveSlot() {
	for s := range w.work {
		tel := w.telemetry()
		tel.slotsBusy.Add(1)
		w.execute(s)
		tel.slotsBusy.Add(-1)
		if w.evicted.Load() {
			w.free <- s
			continue
		}
		w.resCh <- s
	}
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
	pending := make([]*slot, 0, batchMax)
	out := message{Type: "results", Results: make([]*Result, 0, batchMax)}
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if !w.evicted.Load() {
			for _, s := range pending {
				out.Results = append(out.Results, &s.res)
			}
			n, _ := w.conn.SendFrame(&out)
			w.telemetry().planeOut.Add(int64(n))
			clear(out.Results)
			out.Results = out.Results[:0]
		}
		// Written or never to be: the slots are free for their next tasks.
		for _, s := range pending {
			w.free <- s
		}
		clear(pending)
		pending = pending[:0]
	}
	for exiting := false; !exiting; {
		select {
		case s := <-w.resCh:
			pending = append(pending, s)
		case <-w.done:
			// Every in-flight task has queued its result by now.
			exiting = true
		}
		for yielded := false; ; {
			select {
			case s := <-w.resCh:
				if pending = append(pending, s); len(pending) == batchMax {
					flush()
				}
				continue
			default:
			}
			// The queue is dry. While more slots hold unfinished tasks than
			// results are in hand, yield once — a reschedule, not a timer —
			// so tasks finishing this instant make this message instead of
			// the next.
			if unfinished := cap(w.free) - len(w.free) - len(pending); yielded || unfinished <= len(pending) {
				break
			}
			yielded = true
			runtime.Gosched()
		}
		flush()
	}
}

// execute runs the slot's task and leaves its result, with the report
// the executor handed over, in the slot.
func (w *Worker) execute(s *slot) {
	t, res := &s.task, &s.res
	*res = Result{TaskID: t.ID, Tag: t.Tag, Worker: w.name}
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

	fail := func(code int, format string, args ...any) {
		res.ExitCode = code
		res.Error = fmt.Sprintf(format, args...)
	}

	// A task carries its arguments and nothing else, so there is nothing
	// to stage in. The sandbox is executor scratch, its path built and the
	// directory made only if the executor asks for them (ctx.Sandbox,
	// ctx.EnsureSandbox): profiling showed sandbox mkdir/rmdir dominating
	// the per-task syscall budget.
	s.held = heldState{}
	s.ctx = ExecContext{Task: t, Dir: w.dir, WorkerName: w.name, Tracer: tracer, held: &s.held, lost: w.lost}
	ctx := &s.ctx
	defer func() {
		if s.held.sandbox {
			os.RemoveAll(ctx.Sandbox())
		}
	}()

	// Execute.
	exec, ok := w.reg[t.Func]
	if !ok {
		fail(127, "unknown executor %q", t.Func)
		return
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
	res.Report = s.held.report
	if ee, ok := err.(*ExitError); ok {
		fail(ee.Code, "%s", ee.Error())
	} else if err != nil {
		fail(1, "%v", err)
	}
}
