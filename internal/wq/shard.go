package wq

import (
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/stats"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// The master's task table is lock-striped so Submit, dispatch, requeue and
// completion never serialise on one mutex. Two independent stripe sets
// cover the two access patterns:
//
//   - state shards hold every live task's bookkeeping (taskMeta), keyed by
//     task ID. IDs are allocated sequentially, so id&mask round-robins the
//     stripes and any single lock sees 1/N of the per-task traffic.
//   - dispatch queues hold the ready (undispatched) tasks. Submit picks a
//     queue by power-of-two-choices on queue length; each worker connection
//     has a home queue (hashed from the worker identity, the foreman being
//     the natural shard key) and steals round-robin from the others when
//     its home runs dry, so no queue can strand work.
//
// Dispatchers that find every queue empty park on one idle condition
// variable. The global idleMu is only touched when sleepers exist — at
// full throughput (every core busy, queues non-empty) Submit and dispatch
// touch nothing but their own stripe.
const shardCount = 16 // power of two

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
// zero allocation once warmed to the high-water mark. Both the dispatch
// queues (of *taskMeta) and the result queues (of *Result) stripe over
// it.
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

// popN moves up to len(dst) values into dst, returning the count.
func (r *ring[T]) popN(dst []T) int {
	n := len(dst)
	if n > r.n {
		n = r.n
	}
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

// stateShard is one stripe of the live-task table.
type stateShard struct {
	mu    sync.Mutex
	tasks map[int64]*taskMeta
	_     [40]byte // keep neighbouring stripes off one cache line
}

// dispatchQueue is one stripe of the ready queue. size mirrors ready.n so
// power-of-two-choices and steal scans read lengths without locking.
type dispatchQueue struct {
	mu    sync.Mutex
	ready ring[*taskMeta]
	size  atomic.Int64
	_     [24]byte
}

// dispatchTable is the sharded dispatch plane state.
type dispatchTable struct {
	state  [shardCount]stateShard
	queues [shardCount]dispatchQueue

	pending  atomic.Int64 // total queued tasks across all queues
	sleepers atomic.Int32 // dispatchers parked waiting for work
	idleMu   sync.Mutex
	idleCond *sync.Cond
	rng      atomic.Uint64 // splitmix64 state for power-of-two-choices

	// tel is installed by Master.Instrument after traffic may already be
	// flowing; the zero set keeps the uninstrumented hot path at a nil
	// branch and zero allocations (pinned by BenchmarkDispatchDisabledTel).
	tel atomic.Pointer[dispatchTel]
}

// dispatchTel is the dispatch plane's instrument set: steal/park/wake
// counters and the per-dispatch batch-size histogram. The zero value is
// fully functional — every field nil, every call a nil-receiver no-op.
type dispatchTel struct {
	steals    *telemetry.Counter
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
	d := &dispatchTable{}
	d.idleCond = sync.NewCond(&d.idleMu)
	d.rng.Store(0x9e3779b97f4a7c15)
	for i := range d.state {
		d.state[i].tasks = make(map[int64]*taskMeta)
	}
	return d
}

func (d *dispatchTable) stateOf(id int64) *stateShard {
	return &d.state[uint64(id)&(shardCount-1)]
}

// splitmixNext is a splitmix64 step over shared state: cheap, lock-free,
// good enough to spread power-of-two-choices across striped queues.
func splitmixNext(rng *atomic.Uint64) uint64 {
	for {
		old := rng.Load()
		if rng.CompareAndSwap(old, old+stats.SplitMixGamma) {
			return stats.SplitMix64(old)
		}
	}
}

func (d *dispatchTable) nextRand() uint64 { return splitmixNext(&d.rng) }

// enqueue places a ready task on a queue chosen by power-of-two-choices
// and wakes a parked dispatcher if any exist.
func (d *dispatchTable) enqueue(m *taskMeta) {
	r := d.nextRand()
	i := uint32(r) & (shardCount - 1)
	j := uint32(r>>32) & (shardCount - 1)
	q := &d.queues[i]
	if d.queues[j].size.Load() < q.size.Load() {
		q = &d.queues[j]
	}
	q.mu.Lock()
	q.ready.push(m)
	q.mu.Unlock()
	q.size.Add(1)
	d.pending.Add(1)
	d.wakeSleepers()
}

// wakeSleepers wakes parked dispatchers. The sleeper check and the
// pending re-check in park are both sequentially-consistent atomics, so a
// dispatcher either sees the new work before parking or is woken here.
func (d *dispatchTable) wakeSleepers() {
	if d.sleepers.Load() > 0 {
		d.telemetry().wakes.Inc()
		d.idleMu.Lock()
		d.idleCond.Broadcast()
		d.idleMu.Unlock()
	}
}

// wakeAll unconditionally wakes every parked dispatcher (close, worker
// death — the rare paths where a dispatcher must re-check its exit
// condition).
func (d *dispatchTable) wakeAll() {
	d.idleMu.Lock()
	d.idleCond.Broadcast()
	d.idleMu.Unlock()
}

// popBatch fills dst with ready tasks, preferring the home queue and
// stealing round-robin from the others. Tasks are taken from the first
// non-empty queue only — a partial batch dispatches immediately rather
// than waiting to fill, as the worker's result side does: neither end
// of the wire holds a message back for company.
func (d *dispatchTable) popBatch(home uint32, dst []*taskMeta) int {
	for k := uint32(0); k < shardCount; k++ {
		q := &d.queues[(home+k)&(shardCount-1)]
		if q.size.Load() == 0 {
			continue
		}
		q.mu.Lock()
		n := q.ready.popN(dst)
		q.mu.Unlock()
		if n > 0 {
			q.size.Add(int64(-n))
			d.pending.Add(int64(-n))
			tel := d.telemetry()
			if k > 0 {
				tel.steals.Inc()
			}
			tel.batchSize.Observe(float64(n))
			return n
		}
	}
	return 0
}

// park blocks until work may be available or stop() reports the caller
// should exit. The caller re-checks its own conditions after park returns.
func (d *dispatchTable) park(stop func() bool) {
	d.telemetry().parks.Inc()
	d.sleepers.Add(1)
	d.idleMu.Lock()
	for d.pending.Load() == 0 && !stop() {
		d.idleCond.Wait()
	}
	d.idleMu.Unlock()
	d.sleepers.Add(-1)
}

// taskTrace is the master-side tracing state of one in-flight task: the
// per-task root span (or hop span when the task arrived with an
// upstream context), the span of the current dispatch attempt, and when
// the task last became ready (submit or requeue), which bounds the
// "submit" queue-wait span stamped at dispatch. Access is ordered by
// the task's state-shard mutex; spans are ended outside it.
type taskTrace struct {
	root     *trace.Span
	rootCtx  trace.Context
	dispatch *trace.Span
	readyAt  float64
}
