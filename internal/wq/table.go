package wq

import (
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// The master's two tables each sit under one mutex, as the paper's one
// Work Queue process holds one queue of ready tasks:
//
//   - the dispatch table holds every live task's bookkeeping (taskMeta),
//     keyed by task ID, and the ready (undispatched) tasks oldest first.
//     Dispatch is FIFO: a task requeued after a lost worker, or handed
//     back by a dying connection, joins the tail. Dispatchers with no
//     ready work park on the table's condition.
//   - the result table holds arrived results until WaitResult or Drain
//     collects them; collectors park on its condition.
//
// The lock is taken once per Submit, per pop batch, per stamp batch and
// per results message, never once per task of a batch. DESIGN.md §11 has
// the measurements behind one lock and the bar for striping the tables.

// taskMeta is the master-side state of one live task, recycled through a
// pool so a million-task run reuses a bounded working set.
type taskMeta struct {
	task       *Task
	wc         *workerConn // nil while queued, owning connection while running
	submitted  time.Time
	dispatched time.Time
	retries    int
	tt         *taskTrace
}

var metaPool = sync.Pool{New: func() any { return new(taskMeta) }}

func newTaskMeta() *taskMeta { return metaPool.Get().(*taskMeta) }

func releaseMeta(m *taskMeta) {
	*m = taskMeta{}
	metaPool.Put(m)
}

// ring is a growable FIFO ring: push at tail, pop at head, amortised
// zero allocation once warmed to the high-water mark. The ready queue
// (of *taskMeta) and the result queue (of *Result) are both one.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 64
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// popN moves up to len(dst) values into dst, oldest first, returning the
// count.
func (r *ring[T]) popN(dst []T) int {
	n := min(len(dst), r.n)
	var zero T
	mask := len(r.buf) - 1
	for i := 0; i < n; i++ {
		j := (r.head + i) & mask
		dst[i] = r.buf[j]
		r.buf[j] = zero
	}
	r.head = (r.head + n) & mask
	r.n -= n
	return n
}

// dispatchTable is the master's task table: live tasks by ID and the
// ready queue, under mu.
type dispatchTable struct {
	mu     sync.Mutex
	tasks  map[int64]*taskMeta
	ready  ring[*taskMeta]
	idle   sync.Cond // parked dispatchers; L is &mu
	parked int       // dispatchers waiting on idle

	// tel is installed by Master.Instrument after traffic may already be
	// flowing; the zero set keeps the uninstrumented hot path at a nil
	// branch and zero allocations (pinned by BenchmarkDispatchDisabledTel).
	tel atomic.Pointer[dispatchTel]
}

// dispatchTel is the dispatch plane's instrument set: park/wake counters
// and the per-dispatch batch-size histogram. The zero value is fully
// functional — every field nil, every call a nil-receiver no-op.
type dispatchTel struct {
	parks     *telemetry.Counter
	wakes     *telemetry.Counter
	batchSize *telemetry.Histogram
}

var noDispatchTel dispatchTel

// telemetry returns the installed instruments, or the free zero set.
func (d *dispatchTable) telemetry() *dispatchTel {
	if t := d.tel.Load(); t != nil {
		return t
	}
	return &noDispatchTel
}

func newDispatchTable() *dispatchTable {
	d := &dispatchTable{tasks: make(map[int64]*taskMeta)}
	d.idle.L = &d.mu
	return d
}

// submit records a new task and queues it behind every ready task.
func (d *dispatchTable) submit(m *taskMeta) {
	d.mu.Lock()
	d.tasks[m.task.ID] = m
	d.pushLocked(m)
	d.mu.Unlock()
}

// enqueue returns tasks to the tail of the ready queue.
func (d *dispatchTable) enqueue(ms ...*taskMeta) {
	d.mu.Lock()
	for _, m := range ms {
		d.pushLocked(m)
	}
	d.mu.Unlock()
}

// pushLocked queues m and wakes any parked dispatcher. d.mu is held.
func (d *dispatchTable) pushLocked(m *taskMeta) {
	d.ready.push(m)
	if d.parked > 0 {
		d.telemetry().wakes.Inc()
		d.idle.Broadcast()
	}
}

// waiting is the number of ready tasks.
func (d *dispatchTable) waiting() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ready.n
}

// wakeAll wakes every parked dispatcher (close, worker death — the rare
// paths where a dispatcher must re-check its exit condition).
func (d *dispatchTable) wakeAll() {
	d.mu.Lock()
	d.idle.Broadcast()
	d.mu.Unlock()
}

// popBatch fills dst with the oldest ready tasks. A partial batch
// dispatches immediately rather than waiting to fill, as the worker's
// result side does: neither end of the wire holds a message back for
// company.
func (d *dispatchTable) popBatch(dst []*taskMeta) int {
	d.mu.Lock()
	n := d.ready.popN(dst)
	d.mu.Unlock()
	if n > 0 {
		d.telemetry().batchSize.Observe(float64(n))
	}
	return n
}

// park blocks until a task is ready or stop() reports the caller should
// exit. The caller re-checks its own conditions after park returns.
func (d *dispatchTable) park(stop func() bool) {
	d.telemetry().parks.Inc()
	d.mu.Lock()
	d.parked++
	for d.ready.n == 0 && !stop() {
		d.idle.Wait()
	}
	d.parked--
	d.mu.Unlock()
}

// resultTable holds arrived results until they are collected, under mu.
type resultTable struct {
	mu      sync.Mutex
	q       ring[*Result]
	arrived sync.Cond // WaitResult callers; L is &mu

	// spare is a timeout that WaitResult armed and stopped before it
	// fired, kept for the next wait (nil while a waiter holds it).
	spare *waitTimeout
}

// waitTimeout is one WaitResult's timeout: when its timer fires it marks
// the wait expired and wakes the waiters.
type waitTimeout struct {
	t       *resultTable
	timer   *time.Timer
	expired bool // guarded by t.mu
}

func (w *waitTimeout) fire() {
	w.t.mu.Lock()
	w.expired = true
	w.t.arrived.Broadcast()
	w.t.mu.Unlock()
}

// armTimeout returns a timeout that fires after d: the spare, re-armed,
// or a new one when another waiter holds it. Caller holds mu.
func (t *resultTable) armTimeout(d time.Duration) *waitTimeout {
	w := t.spare
	if w == nil {
		w = &waitTimeout{t: t}
		w.timer = time.AfterFunc(d, w.fire)
		return w
	}
	t.spare = nil
	w.expired = false
	w.timer.Reset(d)
	return w
}

// disarm stops w and keeps it as the spare, unless it has fired: its
// callback may still be on its way to mu then, and would expire the next
// wait. Caller holds mu.
func (t *resultTable) disarm(w *waitTimeout) {
	if w.timer.Stop() {
		t.spare = w
	}
}

func newResultTable() *resultTable {
	t := &resultTable{}
	t.arrived.L = &t.mu
	return t
}

// push records the results of one message under one lock acquisition.
func (t *resultTable) push(rs ...*Result) {
	if len(rs) == 0 {
		return
	}
	t.mu.Lock()
	for _, r := range rs {
		t.q.push(r)
	}
	t.arrived.Broadcast()
	t.mu.Unlock()
}

// popN moves up to len(dst) results into dst without blocking.
func (t *resultTable) popN(dst []*Result) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.q.popN(dst)
}

// pending is the number of results not yet collected.
func (t *resultTable) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.q.n
}

// wakeAll wakes every parked collector when the master closes.
func (t *resultTable) wakeAll() {
	t.mu.Lock()
	t.arrived.Broadcast()
	t.mu.Unlock()
}

// taskTrace is the master-side tracing state of one in-flight task: the
// per-task root span, the span of the current dispatch attempt, and when
// the task last became ready (submit or requeue), which bounds the
// "submit" queue-wait span stamped at dispatch. Access is ordered by the
// dispatch table's mutex; spans are ended outside it.
type taskTrace struct {
	root     *trace.Span
	rootCtx  trace.Context
	dispatch *trace.Span
	readyAt  float64
}
