package wq

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
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
	m.res.push(burst...)
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
		if _, err := m.Submit(&Task{Func: "echo", Args: argsOf(testArgs{Text: "x"})}); err != nil {
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
	id, err := m.Submit(&Task{Func: "hold", MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		w, release := holdWorker(t, m.Addr(), fmt.Sprintf("victim%d", attempt), 1)
		waitStats(t, m, fmt.Sprintf("attempt %d never dispatched", attempt), running(1))
		// Wait for the loss to be accounted before connecting the next
		// victim, so each eviction burns exactly one attempt.
		evictHolding(t, m, w, release, running(0))
	}
	r, ok := m.WaitResult(10 * time.Second)
	if !ok {
		t.Fatal("no result after retry budget exhausted")
	}
	if r.TaskID != id || !r.Failed() || r.ExitCode != -1 {
		t.Fatalf("result: %+v", r)
	}
	if !(r.Permanent && r.Failed()) {
		t.Fatalf("result not typed permanent: %+v", r)
	}
	if r.Requeues != 3 {
		t.Fatalf("requeues = %d, want 3 (MaxRetries+1 attempts)", r.Requeues)
	}
}

// --- Wire peers -------------------------------------------------------

// rawPeer speaks the wire protocol by hand — a size line, then the JSON
// body — so tests can impersonate a peer and inspect the exact framing.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawPeer{t: t, conn: c, r: bufio.NewReader(c)}
}

func (p *rawPeer) send(m *message) {
	p.t.Helper()
	body, err := json.Marshal(m)
	if err == nil {
		_, err = fmt.Fprintf(p.conn, "%d\n%s", len(body), body)
	}
	if err != nil {
		p.t.Fatalf("raw send %s: %v", m.Type, err)
	}
}

func (p *rawPeer) recv(timeout time.Duration) *message {
	p.t.Helper()
	body := p.recvBody(timeout)
	var m message
	if err := json.Unmarshal(body, &m); err != nil || body[0] != '{' || body[len(body)-1] != '}' {
		p.t.Fatalf("raw recv: body %q is not exactly one object: %v", body, err)
	}
	return &m
}

// recvBody reads one frame and returns its body as sent.
func (p *rawPeer) recvBody(timeout time.Duration) []byte {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(timeout))
	defer p.conn.SetReadDeadline(time.Time{})
	line, err := p.r.ReadString('\n')
	if err != nil {
		p.t.Fatalf("raw recv: %v", err)
	}
	n, err := strconv.Atoi(strings.TrimSuffix(line, "\n"))
	if err != nil {
		p.t.Fatalf("raw recv: size line %q: %v", line, err)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(p.r, body); err != nil || n == 0 {
		p.t.Fatalf("raw recv: %d-byte body: %v", n, err)
	}
	return body
}

// TestInteropBatchPeers impersonates a worker and checks the whole
// exchange on the one framing: a hello, no reply to it, "tasks" batches
// down, and "results" batches accepted back.
func TestInteropBatchPeers(t *testing.T) {
	m := newMaster(t)
	p := dialRaw(t, m.Addr())
	p.send(&message{Type: "hello", Name: "batcher", Cores: 16})

	const n = 16
	for i := 0; i < n; i++ {
		if _, err := m.Submit(&Task{Func: "noop"}); err != nil {
			t.Fatal(err)
		}
	}
	var results []*Result
	got := 0
	for got < n {
		msg := p.recv(10 * time.Second)
		if msg.Type != "tasks" || len(msg.Tasks) == 0 {
			t.Fatalf("unexpected message %+v", msg)
		}
		results = results[:0]
		for _, task := range msg.Tasks {
			results = append(results, &Result{TaskID: task.ID, Worker: "batcher"})
			got++
		}
		p.send(&message{Type: "results", Results: results})
	}
	if collected := m.Drain(n, 10*time.Second); len(collected) != n {
		t.Fatalf("collected %d/%d batched results", len(collected), n)
	}
}

// TestResultFrameLeavesMasterTimesOut: a worker stamps only Started and
// Finished, so its result frame carries no submitted, dispatched or
// returned key (the master stamps those once the result is in), and the
// report rides the frame as an object, not as encoded bytes.
func TestResultFrameLeavesMasterTimesOut(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	w, err := NewWorker(lis.Addr().String(), "w0", 1, t.TempDir(), testRegistry(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	nc, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	p := &rawPeer{t: t, conn: nc, r: bufio.NewReader(nc)}
	if hello := p.recv(10 * time.Second); hello.Type != "hello" {
		t.Fatalf("first message %+v, want a hello", hello)
	}
	p.send(&message{Type: "tasks", Tasks: []*Task{{ID: 1, Func: "echo", Args: argsOf(testArgs{Text: "execute"})}}})
	body := p.recvBody(10 * time.Second)
	var frame struct {
		Results []struct {
			Report json.RawMessage
			Stats  struct{ Times map[string]json.RawMessage }
		}
	}
	if err := json.Unmarshal(body, &frame); err != nil || len(frame.Results) != 1 {
		t.Fatalf("results frame %s: %v", body, err)
	}
	r := frame.Results[0]
	if len(r.Stats.Times) != 2 || r.Stats.Times["started"] == nil || r.Stats.Times["finished"] == nil {
		t.Errorf("worker stamped times %s, want only started and finished", body)
	}
	if !bytes.HasPrefix(r.Report, []byte(`{"durations":[`)) || !bytes.HasSuffix(r.Report, []byte(`"error":"execute"}`)) {
		t.Errorf("report rode the frame as %s, want the record itself", r.Report)
	}
}

// queuedResultsWorker is a worker of n slots whose resCh already holds
// all n before its result loop has run: just the loop's own state, and
// one end of an in-memory pipe as the master connection.
func queuedResultsWorker(n int) (*Worker, net.Conn) {
	near, far := net.Pipe()
	w := &Worker{conn: newConn(near), free: make(chan *slot, n), resCh: make(chan *slot, n), done: make(chan struct{})}
	for i := 0; i < n; i++ {
		w.resCh <- &slot{res: Result{TaskID: int64(i + 1)}}
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

	msg := (&rawPeer{t: t, conn: far, r: bufio.NewReader(far)}).recv(10 * time.Second)
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
		w.conn.Fail(nil) // only now can the master's read end see EOF
	}()
	if data, err := io.ReadAll(far); err != nil || len(data) != 0 {
		t.Fatalf("evicted worker wrote %q (err %v), want nothing", data, err)
	}
	if len(w.resCh) != 0 {
		t.Fatalf("%d results left queued after the loop exited", len(w.resCh))
	}
	if len(w.free) != 8 {
		t.Fatalf("%d of 8 slots freed after the loop exited", len(w.free))
	}
}
