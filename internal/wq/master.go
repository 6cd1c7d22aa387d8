package wq

import (
	"errors"
	"fmt"
	"net"
	"strconv"
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
	BytesSent        int64 // task input payload bytes shipped to workers
	BytesReceived    int64 // task output payload bytes returned by workers
}

// Master owns the task queue and distributes work to connected workers.
//
// All per-task state lives in the sharded dispatchTable (see shard.go):
// Submit, dispatch, completion and requeue each lock only the one stripe a
// task hashes to, so the hot path never serialises the whole fleet on a
// master-wide mutex. Per-connection slot accounting lives on the
// workerConn's own lock, and fleet-wide counters are plain atomics.
type Master struct {
	srv *wire.Server // nil on a local master (scale.go), which is never closed

	d      *dispatchTable
	nextID atomic.Int64
	closed atomic.Bool

	running atomic.Int64 // dispatched, result not yet received

	workersMu sync.Mutex
	workers   map[*workerConn]bool

	res *resultTable

	statsSeen, statsLost, statsDone, statsFailed atomic.Int64
	statsRequeues, statsDispatched               atomic.Int64
	statsBytesOut, statsBytesIn                  atomic.Int64

	// tel, fault and tracer are installed after the accept loop is already
	// running, so publication must be atomic.
	tel    atomic.Pointer[masterTelemetry]
	fault  atomic.Pointer[faultinject.Injector]
	tracer atomic.Pointer[trace.Tracer]
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

// masterTelemetry holds the master's instruments. The zero value (nil
// fields) is fully functional and free: every method on a nil instrument
// is a no-op branch.
type masterTelemetry struct {
	dispatches   *telemetry.Counter
	requeues     *telemetry.Counter
	done         *telemetry.Counter
	failed       *telemetry.Counter
	workersSeen  *telemetry.Counter
	workersLost  *telemetry.Counter
	bytesSent    *telemetry.Counter
	bytesRecv    *telemetry.Counter
	dispatchWait *telemetry.Histogram
}

// noMasterTel is the disabled instrument set: every field nil, every
// call a nil-receiver no-op.
var noMasterTel masterTelemetry

// telemetry returns the installed instruments, or the free zero set.
func (m *Master) telemetry() *masterTelemetry {
	if t := m.tel.Load(); t != nil {
		return t
	}
	return &noMasterTel
}

// Instrument registers the master's metric series on reg and begins
// updating them. Call once, before heavy traffic; a nil registry leaves
// the master uninstrumented at zero cost.
func (m *Master) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.tel.Store(&masterTelemetry{
		dispatches: reg.Counter("lobster_wq_dispatches_total",
			"Tasks dispatched to workers, including re-dispatches."),
		requeues: reg.Counter("lobster_wq_requeues_total",
			"Tasks returned to the queue after a worker was lost."),
		done: reg.Counter("lobster_wq_tasks_done_total",
			"Task results collected (success and failure)."),
		failed: reg.Counter("lobster_wq_tasks_failed_total",
			"Task results that reported failure."),
		workersSeen: reg.Counter("lobster_wq_workers_seen_total",
			"Worker hellos accepted."),
		workersLost: reg.Counter("lobster_wq_workers_lost_total",
			"Worker connections dropped."),
		bytesSent: reg.Counter("lobster_wq_bytes_sent_total",
			"Task input payload bytes shipped to workers (after cache stripping)."),
		bytesRecv: reg.Counter("lobster_wq_bytes_received_total",
			"Task output payload bytes returned by workers."),
		dispatchWait: reg.Histogram("lobster_wq_dispatch_latency_seconds",
			"Submit-to-dispatch queue latency.", nil),
	})
	reg.GaugeFunc("lobster_wq_tasks_waiting",
		"Tasks submitted and awaiting dispatch (queue depth).",
		func() float64 { return float64(m.d.pending.Load()) })
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
		func() float64 { return float64(m.res.pending.Load()) })

	// Dispatch-plane instruments: per-shard queue depths for the skew
	// detectors, steal/park/wake counters for the idle-gate economics, and
	// the batch-size histogram that shows how full dispatch rounds run.
	m.d.tel.Store(&dispatchTel{
		steals: reg.Counter("lobster_wq_dispatch_steals_total",
			"Dispatch batches taken from a non-home queue."),
		parks: reg.Counter("lobster_wq_dispatch_parks_total",
			"Dispatcher park episodes (every queue empty)."),
		wakes: reg.Counter("lobster_wq_dispatch_wakes_total",
			"Idle-gate broadcasts waking parked dispatchers."),
		batchSize: reg.Histogram("lobster_wq_dispatch_batch_size",
			"Tasks taken per dispatch batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
	})
	depth := reg.GaugeFuncVec("lobster_wq_shard_queue_depth",
		"Ready tasks queued per dispatch shard.", "shard")
	for i := range m.d.queues {
		q := &m.d.queues[i]
		depth.With(func() float64 { return float64(q.size.Load()) }, strconv.Itoa(i))
	}
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
// The dispatch scratch buffers (popBuf, taskBuf, encScratch, msg) are
// owned by the connection's single dispatcher goroutine and sized once at
// hello, so a dispatch round reuses the same memory end to end.
type workerConn struct {
	name  string
	cores int
	home  uint32 // home dispatch queue, hashed from the peer identity
	conn  *wire.Conn
	sent  *sentSet

	mu   sync.Mutex
	cond *sync.Cond
	// inUse counts reserved slots: increased by the dispatcher, decreased
	// by completions, guarded by mu.
	inUse int
	dead  atomic.Bool

	popBuf     []*taskMeta
	taskBuf    []*Task
	encScratch []Task
	msg        message
}

// homeQueue maps a peer identity onto a dispatch queue (FNV-1a): each
// worker's dispatcher drains its own stripe first and steals from the
// others only when it runs dry.
func homeQueue(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h & (shardCount - 1)
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
	sh := m.d.stateOf(id)
	sh.mu.Lock()
	sh.tasks[id] = mt
	sh.mu.Unlock()
	m.d.enqueue(mt)
	return id, nil
}

// Stats returns a snapshot of master counters.
func (m *Master) Stats() MasterStats {
	s := MasterStats{
		WorkersSeen:     int(m.statsSeen.Load()),
		WorkersLost:     int(m.statsLost.Load()),
		TasksWaiting:    int(m.d.pending.Load()),
		TasksRunning:    int(m.running.Load()),
		TasksDispatched: int(m.statsDispatched.Load()),
		TasksDone:       int(m.statsDone.Load()),
		TasksFailed:     int(m.statsFailed.Load()),
		Requeues:        int(m.statsRequeues.Load()),
		BytesSent:       m.statsBytesOut.Load(),
		BytesReceived:   m.statsBytesIn.Load(),
	}
	m.workersMu.Lock()
	for wc := range m.workers {
		if !wc.dead.Load() {
			s.WorkersConnected++
			s.CoresConnected += wc.cores
		}
	}
	m.workersMu.Unlock()
	s.ResultsPending = int(m.res.pending.Load())
	return s
}

// WaitResult blocks until a result is available or the timeout elapses
// (timeout <= 0 waits forever). The second return is false on timeout or
// master close with no pending results.
func (m *Master) WaitResult(timeout time.Duration) (*Result, bool) {
	var deadline time.Time
	var expired atomic.Bool
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// Wake the idle gate when the deadline lands so the timeout is
		// honoured even with no arrivals.
		timer := time.AfterFunc(timeout, func() {
			expired.Store(true)
			m.res.wakeAll()
		})
		defer timer.Stop()
	}
	for {
		if r, ok := m.res.pop(); ok {
			return r, true
		}
		if m.closed.Load() {
			return nil, false
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, false
		}
		m.res.park(func() bool { return expired.Load() || m.closed.Load() })
	}
}

// takeResults moves up to len(dst) already-arrived results into dst
// without blocking, returning the count. The batch analogue of a
// non-blocking WaitResult: a drainer sweeps whatever the result stripes
// hold.
func (m *Master) takeResults(dst []*Result) int {
	return m.res.popN(dst)
}

// pushResult records a completed task outcome.
func (m *Master) pushResult(r *Result) {
	m.res.push(r)
}

// pushResults records a batch of outcomes under one stripe-lock
// acquisition.
func (m *Master) pushResults(rs []*Result) {
	m.res.pushBatch(rs)
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
	if recv(c, &hello) != nil || hello.Type != "hello" || hello.Cores < 1 {
		return
	}
	wc := &workerConn{
		name:  hello.Name,
		cores: hello.Cores,
		home:  homeQueue(hello.Name),
		conn:  c,
		sent:  newSentSet(),
	}
	wc.cond = sync.NewCond(&wc.mu)
	width := min(wc.cores, batchMax)
	wc.popBuf = make([]*taskMeta, width)
	wc.taskBuf = make([]*Task, 0, width)
	wc.encScratch = make([]Task, width)
	m.workersMu.Lock()
	if m.closed.Load() {
		m.workersMu.Unlock()
		return
	}
	m.workers[wc] = true
	m.workersMu.Unlock()
	m.statsSeen.Add(1)
	m.telemetry().workersSeen.Inc()

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
	m.statsLost.Add(1)
	m.telemetry().workersLost.Inc()
	<-done
	var lost []*taskMeta
	for i := range m.d.state {
		sh := &m.d.state[i]
		sh.mu.Lock()
		for _, mt := range sh.tasks {
			if mt.wc == wc {
				lost = append(lost, mt)
			}
		}
		sh.mu.Unlock()
	}
	for _, mt := range lost {
		m.requeueMeta(mt, wc.name)
	}
}

// requeueMeta returns a lost task to the queue, or fails it permanently
// when its retry budget is exhausted.
func (m *Master) requeueMeta(mt *taskMeta, worker string) {
	id := mt.task.ID
	sh := m.d.stateOf(id)
	sh.mu.Lock()
	if sh.tasks[id] != mt || mt.wc == nil {
		sh.mu.Unlock()
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
		sh.mu.Unlock()
		m.running.Add(-1)
		if lostDispatch != nil {
			lostDispatch.Attr("lost", worker)
			lostDispatch.End()
		}
		m.statsRequeues.Add(1)
		m.telemetry().requeues.Inc()
		m.d.enqueue(mt)
		return
	}
	delete(sh.tasks, id)
	sub := mt.submitted
	sh.mu.Unlock()
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
	m.statsDone.Add(1)
	m.statsFailed.Add(1)
	m.telemetry().done.Inc()
	m.telemetry().failed.Inc()
	m.pushResult(&Result{
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
		n := m.d.popBatch(wc.home, wc.popBuf[:min(free, batchMax)])
		if n == 0 {
			m.d.park(func() bool { return wc.dead.Load() || m.closed.Load() })
			continue
		}
		batch := wc.popBuf[:n]
		// Reserve the slots; a connection that died since the free-slot
		// read returns its pops to the queue and exits.
		wc.mu.Lock()
		if wc.dead.Load() {
			wc.mu.Unlock()
			for _, mt := range batch {
				m.d.enqueue(mt)
			}
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
		if !m.sendBatch(wc, tasks) {
			return
		}
	}
}

// stampBatch records the assignment of each popped task to wc: owner,
// dispatch time, and the trace spans for the queue wait and this dispatch
// attempt. Each task locks only its own state stripe.
func (m *Master) stampBatch(wc *workerConn, batch []*taskMeta) {
	now := time.Now()
	tel := m.telemetry()
	tr := m.tracer.Load()
	for _, mt := range batch {
		id := mt.task.ID
		sh := m.d.stateOf(id)
		sh.mu.Lock()
		mt.wc = wc
		mt.dispatched = now
		sub := mt.submitted
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
		sh.mu.Unlock()
		tel.dispatches.Inc()
		if !sub.IsZero() {
			tel.dispatchWait.Observe(now.Sub(sub).Seconds())
		}
	}
	n := int64(len(batch))
	m.running.Add(n)
	m.statsDispatched.Add(n)
}

// sendBatch encodes tasks in place into the connection's reusable scratch
// and ships them as one "tasks" message. Returns false when the send
// failed, which broke the connection: the read loop ends on it, and its
// cleanup requeues everything the connection held, including this batch.
func (m *Master) sendBatch(wc *workerConn, tasks []*Task) bool {
	var sent int64
	for i, t := range tasks {
		t = encodeInputsInto(&wc.encScratch[i], t, wc.sent)
		for j := range t.Inputs {
			sent += int64(len(t.Inputs[j].Data))
		}
		tasks[i] = t
	}
	wc.msg = message{Type: "tasks", Tasks: tasks}
	if wc.conn.SendFrame(&wc.msg) != nil {
		return false
	}
	m.statsBytesOut.Add(sent)
	m.telemetry().bytesSent.Add(sent)
	return true
}

// completeTask settles one result against the task table. It reports
// false (and the result must be dropped) when the task is unknown or
// owned by a different connection — a duplicate, or a task requeued away
// from a worker presumed lost that answered after all.
func (m *Master) completeTask(wc *workerConn, r *Result) bool {
	sh := m.d.stateOf(r.TaskID)
	sh.mu.Lock()
	mt := sh.tasks[r.TaskID]
	if mt == nil || mt.wc != wc {
		sh.mu.Unlock()
		return false
	}
	delete(sh.tasks, r.TaskID)
	r.Requeues = mt.retries
	r.Stats.Times.Submitted = mt.submitted
	r.Stats.Times.Dispatched = mt.dispatched
	tt := mt.tt
	sh.mu.Unlock()
	releaseMeta(mt)
	m.running.Add(-1)
	wc.mu.Lock()
	wc.inUse--
	wc.cond.Signal()
	wc.mu.Unlock()
	var recv int64
	for i := range r.Outputs {
		recv += int64(len(r.Outputs[i].Data))
	}
	m.statsBytesIn.Add(recv)
	m.statsDone.Add(1)
	failed := r.Failed()
	if failed {
		m.statsFailed.Add(1)
	}
	tel := m.telemetry()
	tel.done.Inc()
	if failed {
		tel.failed.Inc()
	}
	tel.bytesRecv.Add(recv)
	if tt != nil {
		tt.dispatch.End()
		tt.root.AttrInt("exit_code", int64(r.ExitCode))
		tt.root.AttrInt("requeues", int64(r.Requeues))
		tt.root.End()
	}
	r.Stats.Times.Returned = time.Now()
	return true
}

// readLoop consumes results until the connection errors. Each message's
// results are settled, then the accepted ones are published under a
// single result-lock acquisition; the accepted slice reuses the decoded
// message's backing array.
func (m *Master) readLoop(wc *workerConn) {
	var msg message
	for recv(wc.conn, &msg) == nil {
		if msg.Type != "results" {
			continue
		}
		accepted := msg.Results[:0]
		for _, r := range msg.Results {
			if r != nil && m.completeTask(wc, r) {
				accepted = append(accepted, r)
			}
		}
		m.pushResults(accepted)
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
		if k := m.takeResults(sweep[:want]); k > 0 {
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
