package wq

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// --- Drain regression -------------------------------------------------

// TestDrainBurstAfterDeadline is the regression test for the
// Drain-vs-timeout race: results that have already arrived must be
// returned even when the deadline passed while earlier results were
// being collected. Before the fix, Drain consulted the clock before the
// result queue and dropped a whole pending burst on the floor.
func TestDrainBurstAfterDeadline(t *testing.T) {
	m := newLocalMaster()
	const n = 100
	burst := make([]*Result, n)
	for i := range burst {
		burst[i] = &Result{TaskID: int64(i + 1), Worker: "w"}
	}
	m.pushResults(burst)
	// A 1ns timeout is expired by the time Drain reads the clock.
	got := m.Drain(n, time.Nanosecond)
	if len(got) != n {
		t.Fatalf("Drain returned %d results, want %d pending results despite expired deadline", len(got), n)
	}
	// And the timeout still bounds actual waiting.
	start := time.Now()
	if extra := m.Drain(5, 50*time.Millisecond); len(extra) != 0 {
		t.Fatalf("Drain returned %d results from an empty queue", len(extra))
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("Drain waited %v, want ~50ms", waited)
	}
}

// TestDrainUnderBurst drives the same race end to end: a fleet finishing
// n tasks faster than the caller's drain deadline must still hand over
// every result that made it back.
func TestDrainUnderBurst(t *testing.T) {
	m := newMaster(t)
	newWorker(t, m.Addr(), "w0", 8)
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := m.Submit(&Task{Func: "echo",
			Args: map[string]string{"text": "x"}, Outputs: []string{"out.txt"}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every result is pending, then drain with an expired
	// deadline: the sweep must return all of them.
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().ResultsPending < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d results pending", m.Stats().ResultsPending, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := m.Drain(n, time.Nanosecond)
	if len(got) != n {
		t.Fatalf("Drain under burst returned %d/%d results", len(got), n)
	}
}

// --- Poison task / permanent failure ----------------------------------

// TestPoisonTaskPermanentFailure loses a task's worker more times than
// its retry budget and asserts the queue surfaces a typed permanent
// failure instead of recycling the task forever.
func TestPoisonTaskPermanentFailure(t *testing.T) {
	m := newMaster(t)
	id, err := m.Submit(&Task{Func: "sleep",
		Args: map[string]string{"d": "2s"}, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		w, err := NewWorker(m.Addr(), fmt.Sprintf("victim%d", attempt), 1, t.TempDir(), testRegistry())
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for m.Stats().TasksRunning == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d never dispatched", attempt)
			}
			time.Sleep(5 * time.Millisecond)
		}
		w.Evict()
		// Wait for the loss to be accounted before connecting the next
		// victim, so each eviction burns exactly one attempt.
		for m.Stats().TasksRunning != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d never requeued", attempt)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	r, ok := m.WaitResult(10 * time.Second)
	if !ok {
		t.Fatal("no result after retry budget exhausted")
	}
	if r.TaskID != id || !r.Failed() || r.ExitCode != -1 {
		t.Fatalf("result: %+v", r)
	}
	if !r.PermanentlyFailed() {
		t.Fatalf("result not typed permanent: %+v", r)
	}
	if r.Requeues != 3 {
		t.Fatalf("requeues = %d, want 3 (MaxRetries+1 attempts)", r.Requeues)
	}
}

// --- Interop matrix ---------------------------------------------------

// rawPeer speaks the wire protocol by hand, so tests can impersonate old
// (proto 0) and new (proto ≥ 1) peers and inspect exact framing.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawPeer{t: t, conn: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}
}

func (p *rawPeer) send(m *message) {
	p.t.Helper()
	if err := p.enc.Encode(m); err != nil {
		p.t.Fatalf("raw send %s: %v", m.Type, err)
	}
}

func (p *rawPeer) recv(timeout time.Duration) *message {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(timeout))
	var m message
	if err := p.dec.Decode(&m); err != nil {
		p.t.Fatalf("raw recv: %v", err)
	}
	p.conn.SetReadDeadline(time.Time{})
	return &m
}

// TestInteropNewMasterOldWorker connects a proto-0 worker (no proto in
// hello) to the batching master: the master must never ack the batch
// capability and must frame every task as a v0 single "task" message.
func TestInteropNewMasterOldWorker(t *testing.T) {
	m := newMaster(t)
	p := dialRaw(t, m.Addr())
	p.send(&message{Type: "hello", Name: "old", Cores: 4})

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := m.Submit(&Task{Func: "noop", Tag: "interop"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg := p.recv(10 * time.Second)
		switch msg.Type {
		case "hello":
			t.Fatal("master acked batch capability to a proto-0 worker")
		case "tasks":
			t.Fatal("master sent batch framing to a proto-0 worker")
		case "task":
			if msg.Task == nil {
				t.Fatal("task message without task")
			}
			// An old worker answers one result per message.
			p.send(&message{Type: "result",
				Result: &Result{TaskID: msg.Task.ID, Worker: "old"}})
		default:
			t.Fatalf("unexpected message %q", msg.Type)
		}
	}
	if got := m.Drain(n, 10*time.Second); len(got) != n {
		t.Fatalf("collected %d/%d results via old worker", len(got), n)
	}
}

// TestInteropOldMasterNewWorker runs the batching worker against a
// master that never acks the capability (a proto-0 master): the worker
// must keep every result on single-message framing.
func TestInteropOldMasterNewWorker(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	w, err := NewWorker(lis.Addr().String(), "new", 4, t.TempDir(), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := <-accepted
	defer c.Close()
	p := &rawPeer{t: t, conn: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}

	hello := p.recv(10 * time.Second)
	if hello.Type != "hello" || hello.Proto < protoBatch {
		t.Fatalf("worker hello = %+v, want proto >= %d advertised", hello, protoBatch)
	}
	// An old master ignores the unknown proto field and never acks.
	// Send a burst of tasks as singles; every result must come back as a
	// single "result" message.
	const n = 8
	for i := 0; i < n; i++ {
		p.send(&message{Type: "task", Task: &Task{
			ID: int64(i + 1), Func: "echo",
			Args: map[string]string{"text": "x"}, Outputs: []string{"out.txt"},
		}})
	}
	seen := make(map[int64]bool)
	for len(seen) < n {
		msg := p.recv(10 * time.Second)
		switch msg.Type {
		case "results":
			t.Fatal("worker sent batch framing without a capability ack")
		case "result":
			if msg.Result == nil || seen[msg.Result.TaskID] {
				t.Fatalf("bad or duplicate result: %+v", msg.Result)
			}
			if msg.Result.Failed() {
				t.Fatalf("task failed: %+v", msg.Result)
			}
			seen[msg.Result.TaskID] = true
		}
	}
}

// TestInteropBatchPeers impersonates a batching worker and checks the
// full negotiated path: hello exchange, "tasks" batch framing down, and
// "results" batch framing accepted back.
func TestInteropBatchPeers(t *testing.T) {
	m := newMaster(t)
	p := dialRaw(t, m.Addr())
	p.send(&message{Type: "hello", Name: "batcher", Cores: 16, Proto: protoBatch})
	if ack := p.recv(10 * time.Second); ack.Type != "hello" || ack.Proto < protoBatch {
		t.Fatalf("capability ack = %+v, want hello with proto >= %d", ack, protoBatch)
	}

	const n = 16
	for i := 0; i < n; i++ {
		if _, err := m.Submit(&Task{Func: "noop"}); err != nil {
			t.Fatal(err)
		}
	}
	var results []*Result
	got := 0
	sawBatch := false
	for got < n {
		msg := p.recv(10 * time.Second)
		var tasks []*Task
		switch msg.Type {
		case "tasks":
			sawBatch = true
			tasks = msg.Tasks
		case "task":
			tasks = []*Task{msg.Task}
		default:
			t.Fatalf("unexpected message %q", msg.Type)
		}
		results = results[:0]
		for _, task := range tasks {
			results = append(results, &Result{TaskID: task.ID, Worker: "batcher"})
			got++
		}
		p.send(&message{Type: "results", Results: results})
	}
	if !sawBatch {
		t.Error("negotiated batch connection never used batch framing")
	}
	if collected := m.Drain(n, 10*time.Second); len(collected) != n {
		t.Fatalf("collected %d/%d batched results", len(collected), n)
	}
}

// queuedResultsWorker is a worker whose resCh already holds n results
// before its result loop has run: just the loop's own state, one end of
// an in-memory pipe as the master connection, the capability acked.
func queuedResultsWorker(n int) (*Worker, net.Conn) {
	near, far := net.Pipe()
	w := &Worker{conn: newConn(near), resCh: make(chan *Result, n), done: make(chan struct{})}
	w.batchOK.Store(true)
	for i := 0; i < n; i++ {
		w.resCh <- &Result{TaskID: int64(i + 1)}
	}
	return w, far
}

// TestWorkerBatchesResults checks the worker-side result batcher:
// results already queued when the loop comes round leave in one
// "results" message, without a timer to gather them.
func TestWorkerBatchesResults(t *testing.T) {
	const n = 8
	w, far := queuedResultsWorker(n)
	defer far.Close()
	w.wg.Add(1)
	go w.resultLoop()
	defer w.wg.Wait()
	defer close(w.done)

	var msg message
	if err := json.NewDecoder(far).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if msg.Type != "results" || len(msg.Results) != n {
		t.Fatalf("first message is %q with %d results, want all %d queued results in one \"results\"",
			msg.Type, len(msg.Results), n)
	}
	for i, r := range msg.Results {
		if r.TaskID != int64(i+1) {
			t.Fatalf("result %d carries task %d: queue order lost", i, r.TaskID)
		}
	}
}

// TestEvictedWorkerSendsNoQueuedResults holds the eviction contract on
// the batcher: results an evicted worker still has queued are dropped,
// never sent — the master has already requeued their tasks.
func TestEvictedWorkerSendsNoQueuedResults(t *testing.T) {
	w, far := queuedResultsWorker(8)
	w.evicted.Store(true)
	close(w.done)
	w.wg.Add(1)
	go func() {
		w.resultLoop()
		w.conn.close() // only now can the master's read end see EOF
	}()
	if data, err := io.ReadAll(far); err != nil || len(data) != 0 {
		t.Fatalf("evicted worker wrote %q (err %v), want nothing", data, err)
	}
	if len(w.resCh) != 0 {
		t.Fatalf("%d results left queued after the loop exited", len(w.resCh))
	}
}
