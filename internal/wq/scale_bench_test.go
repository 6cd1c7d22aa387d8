package wq

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"lobster/internal/wrapper"
)

// BenchmarkMatchLoop measures the master's bare match cycle — submit,
// pop, stamp, complete, collect — with no wire and no executor, the
// allocation budget of the dispatch plane itself. One op moves batchMax
// tasks; task and result objects are reused, so steady-state allocations
// come only from the plane's own bookkeeping.
func BenchmarkMatchLoop(b *testing.B) {
	m := newLocalMaster()
	wc := newSimWorker("bench", batchMax, batchMax)
	var tasks [batchMax]Task
	var results [batchMax]*Result
	for i := range results {
		results[i] = new(Result)
	}
	sweep := make([]*Result, batchMax)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range tasks {
			t := &tasks[j]
			*t = Task{Func: "noop"}
			if _, err := m.Submit(t); err != nil {
				b.Fatal(err)
			}
		}
		popped := 0
		for popped < batchMax {
			n := m.d.popBatch(wc.popBuf[popped:batchMax])
			if n == 0 {
				b.Fatal("queue ran dry mid-batch")
			}
			batch := wc.popBuf[popped : popped+n]
			wc.mu.Lock()
			wc.inUse += n
			wc.mu.Unlock()
			m.stampBatch(wc, batch)
			rs := results[popped : popped+n]
			for k, mt := range batch {
				*rs[k] = Result{TaskID: mt.task.ID}
			}
			if len(m.settle(wc, rs)) != n {
				b.Fatal("completion rejected")
			}
			popped += n
		}
		m.res.push(results[:batchMax]...)
		if got := m.res.popN(sweep); got != batchMax {
			b.Fatalf("swept %d results, want %d", got, batchMax)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batchMax)/b.Elapsed().Seconds(), "tasks/s")
}

// benchLoopback drives no-op tasks through a real master and real TCP
// loopback workers, reporting sustained end-to-end dispatch throughput.
func benchLoopback(b *testing.B, workers, cores int) {
	b.Helper()
	reg := Registry{"noop": func(*ExecContext) error { return nil }}
	m, err := NewMaster("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	dir := b.TempDir()
	ws := make([]*Worker, workers)
	for i := range ws {
		w, err := NewWorker(m.Addr(), fmt.Sprintf("w%d", i), cores,
			fmt.Sprintf("%s/w%d", dir, i), reg, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		ws[i] = w
	}
	defer func() {
		for _, w := range ws {
			w.Close()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Submit(&Task{Func: "noop"}); err != nil {
			b.Fatal(err)
		}
	}
	collected := 0
	for collected < b.N {
		rs := m.Drain(b.N-collected, 30*time.Second)
		if len(rs) == 0 {
			b.Fatalf("drain stalled at %d/%d results", collected, b.N)
		}
		collected += len(rs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkLoopbackDispatchBatched is 64 workers of 8 cores, each task
// and result riding a batch of up to 8.
func BenchmarkLoopbackDispatchBatched(b *testing.B) {
	benchLoopback(b, 64, 8)
}

// BenchmarkScaleSim pushes 100k tasks through 10k virtual workers per op
// — the guard-sized version of the 100k-worker / 1M-task harness run
// (`lobster-bench -dispatch`), measuring the match loop at fleet scale.
func BenchmarkScaleSim(b *testing.B) {
	var last ScaleReport
	for i := 0; i < b.N; i++ {
		last = RunScaleSim(ScaleConfig{Workers: 10_000, Cores: 8, Tasks: 100_000})
	}
	b.ReportMetric(last.TasksPerSec, "tasks/s")
	b.ReportMetric(last.TaskBytes, "task-B")
}

// BenchmarkLoopbackDispatchTwoSlots is the end-to-end benchmark's load
// shape: one connection, two slots, so no result ever has company. What
// it measures is how long a finished result waits to leave the worker —
// under the old 200 µs linger, one netpoller-rounded millisecond.
func BenchmarkLoopbackDispatchTwoSlots(b *testing.B) {
	benchLoopback(b, 1, 2)
}

// loopConn reads back what was written to it: a connection's two ends in
// one, so a message's send and receive run on one goroutine.
type loopConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *loopConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *loopConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// BenchmarkResultMessage sends and receives one "results" message holding
// one result, the message a two-slot worker sends per task: B/op and
// allocs/op are the codec's cost per message, both ends together (the
// received result is the one allocation that must escape), and wire-B is
// the message's bytes on the wire, framing included.
func BenchmarkResultMessage(b *testing.B) {
	nc := &loopConn{}
	c := newConn(nc)
	now := time.Now()
	out := message{Type: "results", Results: []*Result{{
		TaskID: 123456, Tag: "small-tasks", Worker: "pilot-3",
		Stats: TaskStats{Times: TaskTimes{Started: now, Finished: now}, Exec: time.Millisecond},
	}}}
	var in message
	wire := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.SendFrame(&out); err != nil {
			b.Fatal(err)
		}
		wire = nc.buf.Len()
		if _, err := recv(c, &in); err != nil || len(in.Results) != 1 {
			b.Fatalf("recv: %v", err)
		}
	}
	b.ReportMetric(float64(wire), "wire-B")
}

// BenchmarkResultFrame is the master's side of one result: it decodes a
// "results" frame holding one analysis task's result and report, as a
// successful task's wrapper leaves it. B/op and allocs/op are what the
// master's frame decoder allocates per task for the result and its typed
// report; wire-B is the frame's body.
func BenchmarkResultFrame(b *testing.B) {
	nc := &loopConn{}
	c := newConn(nc)
	now := time.Now()
	rep := &wrapper.Report{
		Durations: [6]time.Duration{21035, 118245, 301244, 40521, 1843002, 402118},
		Metrics:   wrapper.Metrics{BytesIn: 4194304, BytesOut: 32768, CacheHits: 31, ConditionsBytes: 4096, Events: 1024},
	}
	n, err := c.SendFrame(&message{Type: "results", Results: []*Result{{
		TaskID: 123456, Tag: "analysis", Worker: "pilot-3", Report: rep,
		Stats: TaskStats{Times: TaskTimes{Started: now, Finished: now}, Exec: time.Millisecond},
	}}})
	if err != nil {
		b.Fatal(err)
	}
	frame := append([]byte(nil), nc.buf.Bytes()...)
	var in message
	// The first read grows the decoder's buffer; a task's share is what
	// every later one allocates.
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		if _, err := recv(c, &in); err != nil || len(in.Results) != 1 || in.Results[0].Report == nil {
			b.Fatalf("recv: %v", err)
		}
		nc.buf.Write(frame)
	}
	b.ReportMetric(float64(n), "wire-B")
}
