// Package wq implements a Work Queue distributed execution system in the
// style the paper uses: a master holds a queue of tasks, workers connect
// over TCP and pull work, and each worker drives several cores from one
// process with one shared cache.
//
// Tasks name an executor function from a Registry shared by master and
// workers (the Go analogue of shipping a command line) and carry its
// arguments as a wrapper.Args, a typed field of the task frame. wq moves
// no files: what a task reads and writes travels over parrot/CVMFS, xrootd
// and chirp. What comes back is the result, and with it the wrapper report
// the executor hands over with ExecContext.SetReport, a typed field of the
// result frame. Each record is encoded once, by the sender's frame
// encoder, and decoded once, in place, by the receiver's.
//
// Non-dedicated behaviour is first-class: a worker may vanish at any moment
// (eviction); the master detects the lost connection and requeues the tasks
// the worker held.
package wq

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"lobster/internal/trace"
	"lobster/internal/wrapper"
)

// Task is one unit of work dispatched to a single worker slot.
type Task struct {
	// ID is assigned by the master at submission.
	ID int64 `json:"id"`
	// Func names the executor in the Registry.
	Func string `json:"func"`
	// Args is the executor's argument record; nil runs the executor on
	// its defaults.
	Args *wrapper.Args `json:"args,omitempty"`
	// Tag is an opaque caller label (Lobster uses it for workflow/task kind).
	Tag string `json:"tag,omitempty"`
	// MaxRetries bounds automatic requeue after worker loss (default 5).
	MaxRetries int `json:"max_retries,omitempty"`
	// Trace carries the encoded trace context across wire hops (see
	// internal/trace). The master stamps it at dispatch, overwriting
	// whatever the submitter put there. A malformed or absent value
	// degrades to a fresh root on the worker.
	Trace string `json:"trace,omitempty"`
}

// TaskTimes records the lifecycle timestamps the monitoring system consumes.
// The worker stamps Started and Finished; the master stamps the other
// three once the result is in, so a worker's result frame leaves them out
// (omitzero, honoured from go1.24's encoding/json; an older one writes the
// zero times, which the master overwrites all the same).
type TaskTimes struct {
	Submitted  time.Time `json:"submitted,omitzero"`
	Dispatched time.Time `json:"dispatched,omitzero"`
	Started    time.Time `json:"started"`
	Finished   time.Time `json:"finished"`
	Returned   time.Time `json:"returned,omitzero"`
}

// TaskStats is measured on the worker and augmented by the master.
type TaskStats struct {
	Times TaskTimes `json:"times"`
	// Exec is executor wall time.
	Exec time.Duration `json:"exec"`
}

// Result is the completed (or failed) outcome of a task.
type Result struct {
	TaskID   int64  `json:"task_id"`
	Tag      string `json:"tag,omitempty"`
	Worker   string `json:"worker"`
	ExitCode int    `json:"exit_code"`
	Error    string `json:"error,omitempty"`
	// Report is the wrapper report the executor handed over with
	// ExecContext.SetReport, on success and on failure alike; nil when it
	// handed none over.
	Report *wrapper.Report `json:"report,omitempty"`
	Stats  TaskStats       `json:"stats"`
	// Requeues counts how many times the task was re-dispatched after
	// worker loss before this result.
	Requeues int `json:"requeues"`
	// Permanent marks a failure the queue will never retry: the task
	// exhausted its requeue budget. A poison task — one that kills or
	// outlives every worker it lands on — surfaces here instead of
	// cycling through the fleet forever.
	Permanent bool `json:"permanent,omitempty"`
}

// Failed reports whether the task did not complete successfully.
func (r *Result) Failed() bool { return r.ExitCode != 0 || r.Error != "" }

// ExecContext is handed to an executor on the worker. It, its Task and
// the task's Args belong to the worker's slot, which reuses them for its
// next task: an executor must keep no pointer to any of them once it
// returns. The strings and slices they hold are never overwritten, and
// are its to keep.
type ExecContext struct {
	// Task is the task being executed (do not mutate).
	Task *Task
	// Dir is the worker's scratch directory, the one Sandbox lives under.
	Dir string
	// WorkerName identifies the executing worker.
	WorkerName string
	// Trace is the execution's trace context (the worker's execute span
	// when tracing is on, the incoming wire context when only upstream
	// traces, zero otherwise). Executors propagate it into chirp, squid,
	// and xrootd operations.
	Trace trace.Context
	// Tracer records executor-internal spans; nil when tracing is off.
	Tracer *trace.Tracer

	// held is what the executor leaves for the worker. It lives in the
	// worker's slot record, so a copy of the context (a shim re-tagging
	// Trace) still writes where the worker reads.
	held *heldState
	// lost is the worker's: closed when its receive loop ends.
	lost <-chan struct{}
}

// errLost is what Err reports once the attempt can no longer be reported.
var errLost = errors.New("wq: the worker lost its master; attempt abandoned")

// Err returns nil while the attempt's result can still reach the master,
// and an error once the worker has lost its master: the connection
// failed, or the worker was closed or evicted. The master has requeued
// the task by then, so the executor must not stage anything out. It is
// shaped like context.Context's Err, and is nil for a nil context or one
// built outside a worker.
func (c *ExecContext) Err() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.lost:
		return errLost
	default:
		return nil
	}
}

// heldState is one task's hand-over from executor to worker.
type heldState struct {
	report  *wrapper.Report // &rep once SetReport handed one over, else nil
	rep     wrapper.Report  // SetReport's copy, which the result carries
	sandbox bool            // the sandbox directory was created
}

// Sandbox returns the path of the task's scratch directory, Dir/task-<id>,
// built when an executor asks for it, not for every task. The directory
// exists only once EnsureSandbox has made it, and the worker removes it
// when the task ends: nothing is staged into it and no output is read
// from it.
func (c *ExecContext) Sandbox() string {
	return filepath.Join(c.Dir, "task-"+strconv.FormatInt(c.Task.ID, 10))
}

// EnsureSandbox creates the sandbox directory on demand. The worker never
// makes one itself — a task that asks for none never touches the
// filesystem on the hot path — so an executor that writes scratch files
// into the sandbox must call this first.
func (c *ExecContext) EnsureSandbox() error {
	h := c.hold()
	if h.sandbox {
		return nil // an earlier call made and counted it
	}
	if err := os.MkdirAll(c.Sandbox(), 0o755); err != nil {
		return err
	}
	filesCreated.Add(1)
	h.sandbox = true
	return nil
}

// hold returns the hand-over state, making one when the context was built
// outside a worker (tests, benchmarks).
func (c *ExecContext) hold() *heldState {
	if c.held == nil {
		c.held = &heldState{}
	}
	return c.held
}

// SetReport hands the task's wrapper report to the worker, which returns
// it to the master in the result, whether the task then succeeds or fails.
// The worker keeps a copy, so rep stays the executor's to reuse; a nil rep
// takes back one handed over before. Call it from the executor's own
// goroutine.
func (c *ExecContext) SetReport(rep *wrapper.Report) {
	h := c.hold()
	if rep == nil {
		h.report = nil
		return
	}
	h.rep = *rep
	h.report = &h.rep
}

// filesCreated counts the sandbox directories this process's executors
// made: the per-task file-system cost that the hot path is pinned to keep
// at zero (BENCH_dataplane.json, files/op).
var filesCreated atomic.Int64

// FilesCreated returns the process-wide count of sandboxes EnsureSandbox
// made.
func FilesCreated() int64 { return filesCreated.Load() }

// Executor is the function a task runs on a worker. A non-nil error marks
// the task failed with exit code 1 unless the error is an *ExitError.
type Executor func(ctx *ExecContext) error

// ExitError lets executors fail with a specific exit code, which Lobster's
// wrapper uses to encode which segment failed.
type ExitError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *ExitError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("exit code %d", e.Code)
	}
	return fmt.Sprintf("exit code %d: %s", e.Code, e.Msg)
}

// Registry maps executor names to functions. Master and workers must agree
// on its contents (they normally share it).
type Registry map[string]Executor
