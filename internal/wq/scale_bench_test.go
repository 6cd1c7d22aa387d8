package wq

import (
	"fmt"
	"testing"
	"time"
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
			n := m.d.popBatch(wc.home, wc.popBuf[popped:batchMax])
			if n == 0 {
				b.Fatal("queue ran dry mid-batch")
			}
			batch := wc.popBuf[popped : popped+n]
			wc.mu.Lock()
			wc.inUse += n
			wc.mu.Unlock()
			m.stampBatch(wc, batch)
			for k, mt := range batch {
				r := results[popped+k]
				*r = Result{TaskID: mt.task.ID}
				if !m.completeTask(wc, r) {
					b.Fatal("completion rejected")
				}
			}
			popped += n
		}
		m.pushResults(results[:batchMax])
		if got := m.takeResults(sweep); got != batchMax {
			b.Fatalf("swept %d results, want %d", got, batchMax)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batchMax)/b.Elapsed().Seconds(), "tasks/s")
}

// benchLoopback drives no-op tasks through a real master and real TCP
// loopback workers, reporting sustained end-to-end dispatch throughput.
func benchLoopback(b *testing.B, workers, cores int, opts WorkerOptions) {
	b.Helper()
	reg := Registry{"noop": func(*ExecContext) error { return nil }}
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	dir := b.TempDir()
	ws := make([]*Worker, workers)
	for i := range ws {
		w, err := NewWorkerOpts(m.Addr(), fmt.Sprintf("w%d", i), cores,
			fmt.Sprintf("%s/w%d", dir, i), reg, opts)
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

// BenchmarkLoopbackDispatchSingle is the v0 wire path: one message per
// task, one per result (the pre-batching protocol, via DisableBatch).
func BenchmarkLoopbackDispatchSingle(b *testing.B) {
	benchLoopback(b, 64, 8, WorkerOptions{DisableBatch: true})
}

// BenchmarkLoopbackDispatchBatched is the same fleet on batch framing.
func BenchmarkLoopbackDispatchBatched(b *testing.B) {
	benchLoopback(b, 64, 8, WorkerOptions{})
}

// BenchmarkScaleSim pushes 100k tasks through 10k virtual workers per op
// — the guard-sized version of the 100k-worker / 1M-task harness run
// (`lobster-bench -dispatch`), measuring the match loop at fleet scale.
func BenchmarkScaleSim(b *testing.B) {
	benchScaleSim(b, false)
}

// BenchmarkScaleSimSingle is the same fleet restricted to one task per
// dispatch round, isolating what batch width alone buys.
func BenchmarkScaleSimSingle(b *testing.B) {
	benchScaleSim(b, true)
}

func benchScaleSim(b *testing.B, single bool) {
	b.Helper()
	var last ScaleReport
	for i := 0; i < b.N; i++ {
		last = RunScaleSim(ScaleConfig{
			Workers:       10_000,
			Cores:         8,
			Tasks:         100_000,
			SingleMessage: single,
		})
	}
	b.ReportMetric(last.TasksPerSec, "tasks/s")
	b.ReportMetric(last.TaskBytes, "task-B")
}

// BenchmarkLoopbackDispatchTwoSlots is the end-to-end benchmark's load
// shape: one connection, two slots, so no result ever has company. What
// it measures is how long a finished result waits to leave the worker —
// under the old 200 µs linger, one netpoller-rounded millisecond.
func BenchmarkLoopbackDispatchTwoSlots(b *testing.B) {
	benchLoopback(b, 1, 2, WorkerOptions{})
}
