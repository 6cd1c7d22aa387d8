package wq

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/faultinject"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// MasterStats is a snapshot of master-side counters. Counters are lock-free
// atomics read individually, so a snapshot is internally relaxed: each field
// is exact at its own read instant, but fields read microseconds apart may
// straddle a task completing (TasksRunning and TasksDone can transiently sum
// one high or low). Monitoring consumers tolerate that; tests quiesce first.
type MasterStats struct {
	WorkersConnected int // currently connected
	WorkersSeen      int // total hellos
	WorkersLost      int // connections dropped with tasks outstanding or not
	CoresConnected   int
	TasksWaiting     int // submitted, not yet dispatched (queue depth)
	TasksRunning     int // dispatched, result not yet received (in flight)
	TasksDispatched  int // cumulative dispatches, including re-dispatches
	TasksDone        int
	TasksFailed      int   // done with failure
	Requeues         int   // cumulative dispatches repeated after worker loss
	ResultsPending   int   // results received but not yet collected by WaitResult
	BytesSent        int64 // task-frame body bytes sent to workers
	BytesReceived    int64 // result-frame body bytes read from workers
}

// Master owns the task queue and distributes work to connected workers.
//
// All per-task state lives in the dispatchTable (see table.go): one
// mutex over the live tasks and the FIFO ready queue, taken once per
// Submit, pop batch, stamp batch and results message. Per-connection slot
// accounting lives on the workerConn's own lock, and fleet-wide counters
// are plain atomics.
type Master struct {
	srv *wire.Server // nil on a local master (scale.go), which is never closed

	d      *dispatchTable
	nextID atomic.Int64
	closed atomic.Bool

	running atomic.Int64 // dispatched, result not yet received

	workersMu sync.Mutex
	workers   map[*workerConn]bool

	res *resultTable

	// The counters Stats reports, counting from construction; Instrument
	// publishes them as they are (all but bytesSent).
	seen, lost, done, failed, requeues, dispatched telemetry.Counter
	bytesSent, bytesReceived                       telemetry.Counter

	// dispatchWait, fault and tracer are installed after the accept loop
	// is already running, so publication must be atomic.
	dispatchWait atomic.Pointer[telemetry.Histogram]
	fault        atomic.Pointer[faultinject.Injector]
	tracer       atomic.Pointer[trace.Tracer]
}

// Fault wires the master into the fault plane: newly accepted worker
// connections are wrapped so their reads and writes consult
// inj under component "wq_master". The master's requeue accounting
// turns the resulting connection losses into re-dispatches, which is
// exactly what chaos storms assert on. Call before traffic; nil is a
// no-op.
func (m *Master) Fault(inj *faultinject.Injector) {
	if inj != nil {
		m.fault.Store(inj)
	}
}

// Instrument publishes the master's counters on reg and registers its
// histograms and gauges. One master per registry, instrumented before
// heavy traffic; a nil registry is a no-op.
func (m *Master) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterVec("lobster_wq_dispatches_total",
		"Tasks dispatched to workers, including re-dispatches.").Publish(&m.dispatched)
	reg.CounterVec("lobster_wq_requeues_total",
		"Tasks returned to the queue after a worker was lost.").Publish(&m.requeues)
	reg.CounterVec("lobster_wq_tasks_done_total",
		"Task results collected (success and failure).").Publish(&m.done)
	reg.CounterVec("lobster_wq_tasks_failed_total",
		"Task results that reported failure.").Publish(&m.failed)
	reg.CounterVec("lobster_wq_workers_seen_total",
		"Worker hellos accepted.").Publish(&m.seen)
	reg.CounterVec("lobster_wq_workers_lost_total",
		"Worker connections dropped.").Publish(&m.lost)
	reg.CounterVec("lobster_wq_bytes_received_total",
		"Result-frame body bytes read from workers.").Publish(&m.bytesReceived)
	m.dispatchWait.Store(reg.Histogram("lobster_wq_dispatch_latency_seconds",
		"Submit-to-dispatch queue latency.", nil))
	reg.GaugeFunc("lobster_wq_tasks_waiting",
		"Tasks submitted and awaiting dispatch (queue depth).",
		func() float64 { return float64(m.d.waiting()) })
	reg.GaugeFunc("lobster_wq_tasks_running",
		"Tasks dispatched and awaiting results (in flight).",
		func() float64 { return float64(m.running.Load()) })
	reg.GaugeFunc("lobster_wq_workers_connected",
		"Workers currently connected.",
		func() float64 { return float64(m.Stats().WorkersConnected) })
	reg.GaugeFunc("lobster_wq_cores_connected",
		"Cores advertised by connected workers.",
		func() float64 { return float64(m.Stats().CoresConnected) })
	reg.GaugeFunc("lobster_wq_results_pending",
		"Results received from workers and not yet collected by WaitResult.",
		func() float64 { return float64(m.res.pending()) })

	// Dispatch-plane instruments: park/wake counters for the idle
	// dispatchers, and the batch-size histogram that shows how full
	// dispatch rounds run.
	m.d.tel.Store(&dispatchTel{
		parks: reg.Counter("lobster_wq_dispatch_parks_total",
			"Dispatcher park episodes (ready queue empty)."),
		wakes: reg.Counter("lobster_wq_dispatch_wakes_total",
			"Broadcasts waking parked dispatchers."),
		batchSize: reg.Histogram("lobster_wq_dispatch_batch_size",
			"Tasks taken per dispatch batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
	})
}

// Trace attaches a tracer: every task gets a root span spanning
// submit→result, a "submit" span per queue wait, and a "dispatch" span
// per dispatch attempt whose context travels to the worker in the task's
// Trace field. Call before traffic; a nil tracer leaves the master
// untraced at zero cost.
func (m *Master) Trace(tr *trace.Tracer) {
	if tr != nil {
		m.tracer.Store(tr)
	}
}

// workerConn is the master's end of one worker connection.
// The dispatch scratch buffers (popBuf, taskBuf, msg) are owned by the
// connection's single dispatcher goroutine and sized once at hello, so a
// dispatch round reuses the same memory end to end; settled is the result
// reader's, grown to the largest results message.
type workerConn struct {
	name  string
	cores int
	conn  *wire.Conn

	mu   sync.Mutex
	cond *sync.Cond
	// inUse counts reserved slots: increased by the dispatcher, decreased
	// by completions, guarded by mu.
	inUse int
	dead  atomic.Bool

	popBuf  []*taskMeta
	taskBuf []*Task
	msg     message
	settled []*taskMeta
}

// NewMaster starts a master listening on addr (e.g. "127.0.0.1:0").
func NewMaster(addr string) (*Master, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wq: master listen: %w", err)
	}
	m := newLocalMaster()
	m.srv = wire.Serve(lis, func(nc net.Conn) {
		m.serveWorker(newConn(m.fault.Load().Conn("wq_master", nc)))
	})
	return m, nil
}

// Addr returns the master's listen address.
func (m *Master) Addr() string { return m.srv.Addr() }

// Submit queues a task and returns its assigned ID.
func (m *Master) Submit(t *Task) (int64, error) {
	if t.Func == "" {
		return 0, errors.New("wq: task needs a Func")
	}
	if t.MaxRetries <= 0 {
		t.MaxRetries = 5
	}
	if m.closed.Load() {
		return 0, errors.New("wq: master is closed")
	}
	id := m.nextID.Add(1)
	t.ID = id
	mt := newTaskMeta()
	mt.task = t
	mt.submitted = time.Now()
	if tr := m.tracer.Load(); tr != nil {
		span := tr.Root("master", "task", t.Tag)
		span.AttrInt("task_id", id)
		if t.Tag != "" {
			span.Attr("tag", t.Tag)
		}
		t.Trace = span.Context().Encode()
		mt.tt = &taskTrace{root: span, rootCtx: span.Context(), readyAt: tr.Now()}
	}
	m.d.submit(mt)
	return id, nil
}

// Stats returns a snapshot of master counters.
func (m *Master) Stats() MasterStats {
	s := MasterStats{
		WorkersSeen:     int(m.seen.Value()),
		WorkersLost:     int(m.lost.Value()),
		TasksWaiting:    m.d.waiting(),
		TasksRunning:    int(m.running.Load()),
		TasksDispatched: int(m.dispatched.Value()),
		TasksDone:       int(m.done.Value()),
		TasksFailed:     int(m.failed.Value()),
		Requeues:        int(m.requeues.Value()),
		BytesSent:       m.bytesSent.Value(),
		BytesReceived:   m.bytesReceived.Value(),
	}
	m.workersMu.Lock()
	for wc := range m.workers {
		if !wc.dead.Load() {
			s.WorkersConnected++
			s.CoresConnected += wc.cores
		}
	}
	m.workersMu.Unlock()
	s.ResultsPending = m.res.pending()
	return s
}

// WaitResult blocks until a result is available or the timeout elapses
// (timeout <= 0 waits forever). The second return is false on timeout or
// master close with no pending results.
//
// A result already waiting is taken without a timer: one is armed only
// to wait, and the one a wait stopped is re-armed for the next.
func (m *Master) WaitResult(timeout time.Duration) (*Result, bool) {
	t := m.res
	var one [1]*Result
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.q.popN(one[:]) == 1 {
		return one[0], true
	}
	var w *waitTimeout
	if timeout > 0 {
		w = t.armTimeout(timeout)
		defer t.disarm(w)
	}
	for t.q.popN(one[:]) == 0 {
		if (w != nil && w.expired) || m.closed.Load() {
			return nil, false
		}
		t.arrived.Wait()
	}
	return one[0], true
}

// Close shuts the master down. Queued and running tasks are abandoned:
// the server hangs every connection up, and each connection's handler
// takes its worker out of dispatch as its read fails.
func (m *Master) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	m.d.wakeAll()
	m.res.wakeAll()
	return m.srv.Close()
}

// markDead takes wc out of dispatch: the dispatcher wakes (whether it is
// waiting for a slot or parked on the idle condition) and exits.
func (m *Master) markDead(wc *workerConn) {
	wc.dead.Store(true)
	wc.mu.Lock()
	wc.cond.Broadcast()
	wc.mu.Unlock()
	m.d.wakeAll()
}

// serveWorker owns one worker connection: reads the hello, then runs the
// dispatch loop and result reader until the connection dies. The caller
// closes c once it returns.
func (m *Master) serveWorker(c *wire.Conn) {
	var hello message
	if _, err := recv(c, &hello); err != nil || hello.Type != "hello" || hello.Cores < 1 {
		return
	}
	wc := &workerConn{
		name:  hello.Name,
		cores: hello.Cores,
		conn:  c,
	}
	wc.cond = sync.NewCond(&wc.mu)
	width := min(wc.cores, batchMax)
	wc.popBuf = make([]*taskMeta, width)
	wc.taskBuf = make([]*Task, 0, width)
	m.workersMu.Lock()
	if m.closed.Load() {
		m.workersMu.Unlock()
		return
	}
	m.workers[wc] = true
	m.workersMu.Unlock()
	m.seen.Inc()

	done := make(chan struct{})
	go func() {
		m.dispatchLoop(wc)
		close(done)
	}()
	m.readLoop(wc)
	// Connection is gone — the read that ended readLoop broke it, which
	// also fails a send in progress: unblock the dispatcher, then requeue
	// what the connection held. The scan waits for the dispatcher to exit
	// so no new assignments to wc can race it.
	m.markDead(wc)
	m.workersMu.Lock()
	delete(m.workers, wc)
	m.workersMu.Unlock()
	m.lost.Inc()
	<-done
	var lost []*taskMeta
	m.d.mu.Lock()
	for _, mt := range m.d.tasks {
		if mt.wc == wc {
			lost = append(lost, mt)
		}
	}
	m.d.mu.Unlock()
	// Back to the tail in submission order, as FIFO dispatch had them.
	slices.SortFunc(lost, func(a, b *taskMeta) int { return cmp.Compare(a.task.ID, b.task.ID) })
	for _, mt := range lost {
		m.requeueMeta(mt, wc.name)
	}
}

// requeueMeta returns a lost task to the tail of the ready queue, or
// fails it permanently when its retry budget is exhausted.
func (m *Master) requeueMeta(mt *taskMeta, worker string) {
	id := mt.task.ID
	d := m.d
	d.mu.Lock()
	if d.tasks[id] != mt || mt.wc == nil {
		d.mu.Unlock()
		return // completed or already requeued since the caller's scan
	}
	mt.wc = nil
	mt.retries++
	n := mt.retries
	t := mt.task
	tt := mt.tt
	var lostDispatch *trace.Span
	if tt != nil {
		lostDispatch, tt.dispatch = tt.dispatch, nil
		tt.readyAt = m.tracer.Load().Now() // requeue restarts the queue wait
	}
	if n <= t.MaxRetries && !m.closed.Load() {
		d.pushLocked(mt)
		d.mu.Unlock()
		m.running.Add(-1)
		if lostDispatch != nil {
			lostDispatch.Attr("lost", worker)
			lostDispatch.End()
		}
		m.requeues.Inc()
		return
	}
	delete(d.tasks, id)
	sub := mt.submitted
	d.mu.Unlock()
	releaseMeta(mt)
	m.running.Add(-1)
	if lostDispatch != nil {
		lostDispatch.Attr("lost", worker)
		lostDispatch.End()
	}
	if tt != nil {
		tt.root.AttrInt("exit_code", -1)
		tt.root.AttrInt("requeues", int64(n))
		tt.root.End()
	}
	m.done.Inc()
	m.failed.Inc()
	m.res.push(&Result{
		TaskID:    id,
		Tag:       t.Tag,
		Worker:    worker,
		ExitCode:  -1,
		Error:     fmt.Sprintf("worker lost and %d retries exhausted", t.MaxRetries),
		Requeues:  n,
		Permanent: true,
		Stats:     TaskStats{Times: TaskTimes{Submitted: sub, Returned: time.Now()}},
	})
}

// dispatchLoop matches ready tasks to wc's free slots: pop a batch sized
// to the free slots, stamp the assignments, and ship them in one message.
// With no ready work it parks on the table's idle condition; with no free
// slots it waits on the connection's own.
func (m *Master) dispatchLoop(wc *workerConn) {
	for {
		wc.mu.Lock()
		for wc.inUse >= wc.cores && !wc.dead.Load() && !m.closed.Load() {
			wc.cond.Wait()
		}
		free := wc.cores - wc.inUse
		wc.mu.Unlock()
		if wc.dead.Load() || m.closed.Load() {
			return
		}
		n := m.d.popBatch(wc.popBuf[:min(free, batchMax)])
		if n == 0 {
			m.d.park(func() bool { return wc.dead.Load() || m.closed.Load() })
			continue
		}
		batch := wc.popBuf[:n]
		// Reserve the slots; a connection that died since the free-slot
		// read returns its pops to the tail of the queue and exits.
		wc.mu.Lock()
		if wc.dead.Load() {
			wc.mu.Unlock()
			m.d.enqueue(batch...)
			return
		}
		wc.inUse += n
		wc.mu.Unlock()
		// Take the tasks while this loop still owns every meta: once
		// stampBatch names wc the owner, a result for a task (a forged or
		// duplicated one included) can complete it and recycle its meta
		// before the send has read it.
		tasks := wc.taskBuf[:n]
		for i, mt := range batch {
			tasks[i] = mt.task
		}
		m.stampBatch(wc, batch)
		// A failed send broke the connection: the read loop ends on it,
		// and its cleanup requeues everything the connection held, this
		// batch included.
		wc.msg = message{Type: "tasks", Tasks: tasks}
		sent, err := wc.conn.SendFrame(&wc.msg)
		if err != nil {
			return
		}
		m.bytesSent.Add(int64(sent))
	}
}

// stampBatch records the assignment of each popped task to wc: owner,
// dispatch time, and the trace spans for the queue wait and this dispatch
// attempt. Until wc is named the owner no other goroutine reads a popped
// meta, so the spans and the queue-wait observation take no lock; the
// owners are named under one.
func (m *Master) stampBatch(wc *workerConn, batch []*taskMeta) {
	now := time.Now()
	wait := m.dispatchWait.Load()
	tr := m.tracer.Load()
	for _, mt := range batch {
		if tt := mt.tt; tt != nil {
			// Queue wait since submit (or the last requeue) becomes a
			// closed "submit" span; the dispatch attempt opens a span
			// whose context travels with the task so the worker's spans
			// chain under this specific attempt.
			tnow := tr.Now()
			qs := tr.StartAt(tt.readyAt, tt.rootCtx, "master", "submit")
			qs.EndAt(tnow)
			d := tr.StartAt(tnow, tt.rootCtx, "master", "dispatch")
			d.Attr("worker", wc.name)
			tt.dispatch = d
			mt.task.Trace = d.Context().Encode()
		}
		wait.Observe(now.Sub(mt.submitted).Seconds())
	}
	m.d.mu.Lock()
	for _, mt := range batch {
		mt.wc = wc
		mt.dispatched = now
	}
	m.d.mu.Unlock()
	n := int64(len(batch))
	m.running.Add(n)
	m.dispatched.Add(n)
}

// settle completes the results of one message against the task table
// under one lock acquisition and returns the accepted ones, kept in place
// at the front of rs. A result is dropped when its task is unknown or
// owned by a different connection — a duplicate, or a task requeued away
// from a worker presumed lost that answered after all.
func (m *Master) settle(wc *workerConn, rs []*Result) []*Result {
	accepted := rs[:0]
	metas := wc.settled[:0]
	m.d.mu.Lock()
	for _, r := range rs {
		if r == nil {
			continue
		}
		mt := m.d.tasks[r.TaskID]
		if mt == nil || mt.wc != wc {
			continue
		}
		delete(m.d.tasks, r.TaskID)
		r.Requeues = mt.retries
		r.Stats.Times.Submitted = mt.submitted
		r.Stats.Times.Dispatched = mt.dispatched
		accepted = append(accepted, r)
		metas = append(metas, mt)
	}
	m.d.mu.Unlock()
	wc.settled = metas
	n := int64(len(accepted))
	if n == 0 {
		return accepted
	}
	m.running.Add(-n)
	wc.mu.Lock()
	wc.inUse -= len(accepted)
	wc.cond.Signal()
	wc.mu.Unlock()
	var failed int64
	now := time.Now()
	for i, r := range accepted {
		if r.Failed() {
			failed++
		}
		if tt := metas[i].tt; tt != nil {
			tt.dispatch.End()
			tt.root.AttrInt("exit_code", int64(r.ExitCode))
			tt.root.AttrInt("requeues", int64(r.Requeues))
			tt.root.End()
		}
		releaseMeta(metas[i])
		metas[i] = nil
		r.Stats.Times.Returned = now
	}
	m.done.Add(n)
	m.failed.Add(failed)
	return accepted
}

// readLoop consumes results until the connection errors. Each message's
// results are settled under one task-table lock and published under one
// result-table lock; the accepted slice reuses the decoded message's
// backing array.
func (m *Master) readLoop(wc *workerConn) {
	var msg message
	for {
		n, err := recv(wc.conn, &msg)
		if err != nil {
			return
		}
		if msg.Type == "results" {
			m.bytesReceived.Add(int64(n))
			m.res.push(m.settle(wc, msg.Results)...)
		}
	}
}

// Drain waits until n results have been collected or the timeout expires,
// returning the results gathered. Results that have already arrived are
// always returned, even when the deadline passed while earlier results
// were being collected — the timeout bounds waiting, not sweeping.
func (m *Master) Drain(n int, timeout time.Duration) []*Result {
	deadline := time.Now().Add(timeout)
	out := make([]*Result, 0, n)
	var sweep [64]*Result
	for len(out) < n {
		// Sweep whatever is already pending before consulting the clock.
		want := min(n-len(out), len(sweep))
		if k := m.res.popN(sweep[:want]); k > 0 {
			out = append(out, sweep[:k]...)
			continue
		}
		remaining := time.Until(deadline)
		if timeout > 0 && remaining <= 0 {
			break
		}
		if timeout <= 0 {
			remaining = 0
		}
		r, ok := m.WaitResult(remaining)
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}
