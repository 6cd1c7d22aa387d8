package wq

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The scale simulation drives the master's real dispatch plane — the
// sharded task table, the power-of-two-choices queues, stamping,
// completion and result collection — with virtual workers that skip only
// the wire: no sockets, no JSON, no executor. 100k workers then cost a
// workerConn struct each instead of a file descriptor and two goroutines,
// so the harness can push the match loop far past what one host can hold
// as real connections, and what it measures is the master's own ceiling.

// ScaleConfig sizes one dispatch-plane scale run.
type ScaleConfig struct {
	// Workers is the number of virtual workers (default 1000).
	Workers int
	// Cores is the core count each virtual worker advertises (default 8).
	Cores int
	// Tasks is the total number of tasks pushed through (default 100k).
	Tasks int
	// Drivers is the number of goroutines driving virtual workers
	// (default GOMAXPROCS). Each driver owns an equal slice of the fleet.
	Drivers int
}

// ScaleReport is the outcome of one scale run.
type ScaleReport struct {
	Workers     int           `json:"workers"`
	Cores       int           `json:"cores"`
	Tasks       int           `json:"tasks"`
	Drivers     int           `json:"drivers"`
	BatchWidth  int           `json:"batch_width"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	TasksPerSec float64       `json:"tasks_per_sec"`
	// TaskBytes is the resident heap footprint per queued task record,
	// measured with the full backlog submitted and nothing dispatched.
	TaskBytes float64 `json:"task_bytes"`
}

func (r ScaleReport) String() string {
	return fmt.Sprintf("%d workers × %d cores, %d tasks, width %d: %.0f tasks/s, %.0f B/task resident",
		r.Workers, r.Cores, r.Tasks, r.BatchWidth, r.TasksPerSec, r.TaskBytes)
}

// newLocalMaster builds a master with no listener: the dispatch plane is
// driven directly (scale simulation), never over the network.
func newLocalMaster() *Master {
	return &Master{
		d:       newDispatchTable(),
		res:     newResultTable(),
		workers: make(map[*workerConn]bool),
	}
}

// newSimWorker builds a virtual worker: real dispatch bookkeeping, no
// connection, no encode scratch (nothing is ever serialised).
func newSimWorker(name string, cores, width int) *workerConn {
	wc := &workerConn{
		name:  name,
		cores: cores,
		home:  homeQueue(name),
		sent:  newSentSet(),
	}
	wc.cond = sync.NewCond(&wc.mu)
	wc.popBuf = make([]*taskMeta, width)
	return wc
}

// RunScaleSim pushes cfg.Tasks no-op tasks through the dispatch plane and
// measures sustained throughput and resident bytes per task record.
func RunScaleSim(cfg ScaleConfig) ScaleReport {
	if cfg.Workers <= 0 {
		cfg.Workers = 1000
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = 100_000
	}
	if cfg.Drivers <= 0 {
		cfg.Drivers = runtime.GOMAXPROCS(0)
	}
	width := min(batchMax, cfg.Cores)

	m := newLocalMaster()
	fleet := make([]*workerConn, cfg.Workers)
	for i := range fleet {
		fleet[i] = newSimWorker(fmt.Sprintf("sim-%d", i), cfg.Cores, width)
	}

	// Submit the entire backlog first: the heap growth across the
	// submissions, settled by a GC, is the per-task resident footprint
	// (task + meta + table entry + queue slot).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cfg.Tasks; i++ {
		if _, err := m.Submit(&Task{Func: "noop", Tag: "scale"}); err != nil {
			panic(err) // closed local master: cannot happen
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	taskBytes := float64(after.HeapAlloc-before.HeapAlloc) / float64(cfg.Tasks)

	// Drain and drive. Completed Result objects are recycled through a
	// pool: the drainer sweeps them out of the results queue and returns
	// them, so the steady-state match loop allocates nothing per task.
	resPool := sync.Pool{New: func() any { return new(Result) }}
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		swept := 0
		buf := make([]*Result, 4*batchMax)
		for swept < cfg.Tasks {
			n := m.takeResults(buf)
			if n == 0 {
				if r, ok := m.WaitResult(time.Second); ok {
					resPool.Put(r)
					swept++
				}
				continue
			}
			for i := 0; i < n; i++ {
				resPool.Put(buf[i])
				buf[i] = nil
			}
			swept += n
		}
	}()

	start := time.Now()
	var driveWG sync.WaitGroup
	for p := 0; p < cfg.Drivers; p++ {
		driveWG.Add(1)
		go func(p int) {
			defer driveWG.Done()
			// Each driver round-robins its own slice of the fleet so every
			// virtual worker identity (and home queue) sees traffic.
			mine := fleet[p*len(fleet)/cfg.Drivers : (p+1)*len(fleet)/cfg.Drivers]
			if len(mine) == 0 {
				return
			}
			out := make([]*Result, 0, width)
			for i := 0; m.d.pending.Load() > 0; i++ {
				wc := mine[i%len(mine)]
				n := m.d.popBatch(wc.home, wc.popBuf[:width])
				if n == 0 {
					continue
				}
				batch := wc.popBuf[:n]
				wc.mu.Lock()
				wc.inUse += n
				wc.mu.Unlock()
				m.stampBatch(wc, batch)
				// "Execute" instantly: settle each task through the real
				// completion path and publish the batch like a results
				// message would.
				out = out[:0]
				for _, mt := range batch {
					r := resPool.Get().(*Result)
					*r = Result{TaskID: mt.task.ID, Tag: mt.task.Tag, Worker: wc.name}
					if m.completeTask(wc, r) {
						out = append(out, r)
					} else {
						resPool.Put(r)
					}
				}
				m.pushResults(out)
			}
		}(p)
	}
	driveWG.Wait()
	drainWG.Wait()
	elapsed := time.Since(start)

	return ScaleReport{
		Workers:     cfg.Workers,
		Cores:       cfg.Cores,
		Tasks:       cfg.Tasks,
		Drivers:     cfg.Drivers,
		BatchWidth:  width,
		Elapsed:     elapsed,
		TasksPerSec: float64(cfg.Tasks) / elapsed.Seconds(),
		TaskBytes:   taskBytes,
	}
}

// RunScaleLoopback drives real TCP workers over the loopback interface:
// full wire framing, result batching, executor and sandbox lifecycle.
// Worker counts here are bounded by file descriptors and goroutines, so
// this plane proves the protocol end to end while RunScaleSim proves the
// table's ceiling. single must be false: the single-message framing it
// once chose is gone, and the argument goes with ROADMAP item 1 f, which
// drops it from its last caller.
func RunScaleLoopback(workers, cores, tasks int, single bool) (ScaleReport, error) {
	if single {
		return ScaleReport{}, errors.New("wq: single-message framing was removed; drop the argument (ROADMAP item 1 f)")
	}
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		return ScaleReport{}, err
	}
	defer m.Close()
	reg := Registry{"noop": func(*ExecContext) error { return nil }}
	root, err := os.MkdirTemp("", "lobster-scale-*")
	if err != nil {
		return ScaleReport{}, err
	}
	defer os.RemoveAll(root)
	ws := make([]*Worker, 0, workers)
	defer func() {
		for _, w := range ws {
			w.Close()
		}
	}()
	for i := 0; i < workers; i++ {
		w, err := NewWorker(m.Addr(), fmt.Sprintf("lo-%d", i), cores,
			filepath.Join(root, fmt.Sprintf("w%d", i)), reg)
		if err != nil {
			return ScaleReport{}, err
		}
		ws = append(ws, w)
	}

	start := time.Now()
	for i := 0; i < tasks; i++ {
		if _, err := m.Submit(&Task{Func: "noop"}); err != nil {
			return ScaleReport{}, err
		}
	}
	got := 0
	for got < tasks {
		rs := m.Drain(tasks-got, time.Minute)
		if len(rs) == 0 {
			return ScaleReport{}, fmt.Errorf("wq: loopback scale run stalled at %d/%d results", got, tasks)
		}
		got += len(rs)
	}
	elapsed := time.Since(start)

	return ScaleReport{
		Workers:     workers,
		Cores:       cores,
		Tasks:       tasks,
		BatchWidth:  min(batchMax, cores),
		Elapsed:     elapsed,
		TasksPerSec: float64(tasks) / elapsed.Seconds(),
	}, nil
}
