package wq

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
)

// Foreman sits between a master and a set of workers: upstream it looks
// like one big worker, downstream it is a master. The paper uses "one
// intermediate rank of four foremen driving a variable number of workers
// managing eight cores each" to spread the load of distributing sandboxes
// and collecting results.
//
// The foreman caches cacheable inputs, so the master ships each sandbox to
// each foreman once, and each foreman ships it to each worker once.
type Foreman struct {
	name     string
	cores    int
	upstream *wire.Conn
	upMu     sync.Mutex // the task loop and the result loop both send upstream
	down     *Master
	cache    *contentCache

	mu      sync.Mutex
	idMap   map[int64]relayEntry // downstream ID → upstream identity
	relayed atomic.Int64
	wg      sync.WaitGroup
	closed  atomic.Bool

	// telRelayed/telErrors/tracer are installed after the relay loops
	// are already running, so publication must be atomic (nil loads are
	// free: counter and tracer methods are nil-receiver no-ops).
	telRelayed atomic.Pointer[telemetry.Counter]
	telErrors  atomic.Pointer[telemetry.Counter]
	tracer     atomic.Pointer[trace.Tracer]
}

// relayEntry tracks one task in flight through the foreman: the ID it
// carries upstream and the relay span open while it is downstream.
type relayEntry struct {
	upID int64
	span *trace.Span
}

// Trace attaches a tracer: each relayed task gets a "relay" span
// chained under the master's dispatch context, re-stamped into the
// task so the downstream master and workers chain under the foreman
// hop. The internal downstream master is traced with the same tracer.
// Call before traffic; nil leaves the foreman untraced at zero cost.
func (f *Foreman) Trace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	f.tracer.Store(tr)
	f.down.Trace(tr)
}

// Instrument registers the foreman's (process-aggregate) metric series on
// reg. A nil registry leaves the foreman uninstrumented at zero cost.
func (f *Foreman) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	f.telRelayed.Store(reg.Counter("lobster_wq_foreman_relayed_total",
		"Results relayed upstream by foremen in this process."))
	f.telErrors.Store(reg.Counter("lobster_wq_foreman_errors_total",
		"Tasks a foreman failed locally (cache or downstream submit errors)."))
	reg.GaugeFunc("lobster_wq_foreman_inflight",
		"Tasks accepted by foremen and not yet relayed upstream.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(f.idMap))
		})
}

// NewForeman connects to the master at upstreamAddr, advertising cores
// upstream, and listens for downstream workers on listenAddr.
func NewForeman(upstreamAddr, listenAddr, name string, cores int) (*Foreman, error) {
	if cores < 1 {
		return nil, fmt.Errorf("wq: foreman needs at least one core")
	}
	down, err := NewMaster(listenAddr)
	if err != nil {
		return nil, fmt.Errorf("wq: foreman downstream: %w", err)
	}
	raw, err := net.DialTimeout("tcp", upstreamAddr, 30*time.Second)
	if err != nil {
		down.Close()
		return nil, fmt.Errorf("wq: foreman dialing master: %w", err)
	}
	f := &Foreman{
		name:     name,
		cores:    cores,
		upstream: newConn(raw),
		down:     down,
		cache:    newContentCache(),
		idMap:    make(map[int64]relayEntry),
	}
	if err := f.upstream.SendFrame(&message{Type: "hello", Name: name, Cores: cores}); err != nil {
		f.Close()
		return nil, err
	}
	f.wg.Add(2)
	go f.taskLoop()
	go f.resultLoop()
	return f, nil
}

// Addr returns the address downstream workers should connect to.
func (f *Foreman) Addr() string { return f.down.Addr() }

// Relayed returns the number of results relayed upstream.
func (f *Foreman) Relayed() int64 { return f.relayed.Load() }

// CachedObjects returns the number of cacheable inputs held.
func (f *Foreman) CachedObjects() int { return f.cache.len() }

// DownstreamStats exposes the foreman's internal master counters.
func (f *Foreman) DownstreamStats() MasterStats { return f.down.Stats() }

// Close tears down both sides.
func (f *Foreman) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	f.upstream.Fail(nil)
	err := f.down.Close()
	f.wg.Wait()
	return err
}

// taskLoop receives tasks from the master and resubmits them downstream,
// until upstream is gone: a real deployment would retry; tests close here.
func (f *Foreman) taskLoop() {
	defer f.wg.Done()
	var msg message
	for recv(f.upstream, &msg) == nil {
		if msg.Type != "tasks" {
			continue
		}
		// Relay in slice order so a data-bearing cacheable input is cached
		// before a later hash-only reference to it resolves.
		for _, t := range msg.Tasks {
			if t != nil {
				f.relayTask(t)
			}
		}
	}
}

// sendUp sends results upstream, one send at a time: the task loop and
// the result loop both send. A failed send has broken the connection
// (SendFrame), so the task loop's next read ends and the master requeues
// what this foreman held.
func (f *Foreman) sendUp(results []*Result) error {
	f.upMu.Lock()
	defer f.upMu.Unlock()
	return f.upstream.SendFrame(&message{Type: "results", Results: results})
}

// failUp answers an upstream task with a local failure.
func (f *Foreman) failUp(upstreamID int64, tag, msg string) {
	f.telErrors.Load().Inc()
	f.sendUp([]*Result{{TaskID: upstreamID, Tag: tag, Worker: f.name, ExitCode: 170, Error: msg}})
}

// relayTask resubmits one upstream task to the downstream master,
// recording the ID mapping for the result path. Cache and submit errors
// are answered upstream immediately as task failures.
func (f *Foreman) relayTask(t *Task) {
	upstreamID := t.ID
	// The relay span chains under the master's dispatch context
	// and is re-stamped into the task, so the downstream
	// master's own spans nest under this foreman hop.
	var span *trace.Span
	if tr := f.tracer.Load(); tr != nil {
		wireCtx, _ := trace.Parse(t.Trace)
		span = tr.Start(wireCtx, "foreman", "relay")
		span.Attr("foreman", f.name)
		t.Trace = span.Context().Encode()
	}
	// Materialise stripped cacheable inputs from the foreman cache
	// so they can be re-encoded per downstream connection.
	if _, _, err := decodeInputs(t, f.cache); err != nil {
		span.Attr("error", "cache")
		span.End()
		f.failUp(upstreamID, t.Tag, "foreman cache: "+err.Error())
		return
	}
	downID, err := f.down.Submit(t)
	if err != nil {
		span.Attr("error", "submit")
		span.End()
		f.failUp(upstreamID, t.Tag, "foreman submit: "+err.Error())
		return
	}
	f.mu.Lock()
	f.idMap[downID] = relayEntry{upID: upstreamID, span: span}
	f.mu.Unlock()
}

// relayResult settles one downstream result against the ID map and
// restores its upstream identity, returning nil for unknown (duplicate
// or locally-failed) tasks.
func (f *Foreman) relayResult(r *Result) *Result {
	f.mu.Lock()
	entry, known := f.idMap[r.TaskID]
	delete(f.idMap, r.TaskID)
	f.mu.Unlock()
	if !known {
		return nil
	}
	entry.span.AttrInt("exit_code", int64(r.ExitCode))
	entry.span.End()
	r.TaskID = entry.upID
	f.relayed.Add(1)
	f.telRelayed.Load().Inc()
	return r
}

// resultLoop relays downstream results upstream with their original IDs.
// Each blocking wait is followed by a non-blocking sweep of whatever else
// has already finished downstream, so a burst of completions rides one
// "results" message.
func (f *Foreman) resultLoop() {
	defer f.wg.Done()
	sweep := make([]*Result, batchMax)
	out := make([]*Result, 0, batchMax)
	for {
		r, ok := f.down.WaitResult(0)
		if !ok {
			return
		}
		out = out[:0]
		if rr := f.relayResult(r); rr != nil {
			out = append(out, rr)
		}
		n := f.down.takeResults(sweep[:batchMax-len(out)])
		for _, r2 := range sweep[:n] {
			if rr := f.relayResult(r2); rr != nil {
				out = append(out, rr)
			}
		}
		if len(out) > 0 && f.sendUp(out) != nil {
			return
		}
	}
}
