// Package wq implements a Work Queue distributed execution system in the
// style the paper uses: a master holds a queue of tasks, workers connect
// over TCP and pull work, each worker drives several cores from one process
// with one shared cache, and foremen can be interposed between master and
// workers to form a hierarchy of arbitrary width and depth.
//
// Tasks name an executor function from a Registry shared by master and
// workers (the Go analogue of shipping a command line), carry input files
// inline — cacheable inputs such as the task sandbox are transferred once
// per connection and shared thereafter — and declare the outputs to return.
//
// Non-dedicated behaviour is first-class: a worker may vanish at any moment
// (eviction); the master detects the lost connection and requeues the tasks
// the worker held.
package wq

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"lobster/internal/trace"
)

// FileSpec is one file moved with a task: an input into the sandbox or an
// output returned to the master.
type FileSpec struct {
	// Name is the file's path within the task sandbox.
	Name string `json:"name"`
	// Data is the content. For cacheable inputs it may be omitted on the
	// wire when the receiver is known to hold Hash already.
	Data []byte `json:"data,omitempty"`
	// Hash is the content hash, filled by the transport for cacheable files.
	Hash string `json:"hash,omitempty"`
	// Cacheable marks immutable inputs (software sandbox, configuration)
	// that workers keep across tasks, the paper's per-worker cache.
	Cacheable bool `json:"cacheable,omitempty"`
}

// hashBytes returns the content hash used for the transfer cache.
func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Task is one unit of work dispatched to a single worker slot.
type Task struct {
	// ID is assigned by the master at submission.
	ID int64 `json:"id"`
	// Func names the executor in the Registry.
	Func string `json:"func"`
	// Args are free-form parameters for the executor.
	Args map[string]string `json:"args,omitempty"`
	// Inputs are staged into the sandbox before execution.
	Inputs []FileSpec `json:"inputs,omitempty"`
	// Outputs are the sandbox paths collected after execution.
	Outputs []string `json:"outputs,omitempty"`
	// Tag is an opaque caller label (Lobster uses it for workflow/task kind).
	Tag string `json:"tag,omitempty"`
	// MaxRetries bounds automatic requeue after worker loss (default 5).
	MaxRetries int `json:"max_retries,omitempty"`
	// Trace carries the encoded trace context across wire hops (see
	// internal/trace). The master stamps it at dispatch; foremen re-stamp
	// it with their own span so every hop chains into one trace. A
	// malformed or absent value degrades to a fresh root downstream.
	Trace string `json:"trace,omitempty"`
}

// TaskTimes records the lifecycle timestamps the monitoring system consumes.
type TaskTimes struct {
	Submitted  time.Time `json:"submitted"`
	Dispatched time.Time `json:"dispatched"`
	Started    time.Time `json:"started"`
	Finished   time.Time `json:"finished"`
	Returned   time.Time `json:"returned"`
}

// TaskStats is measured on the worker and augmented by the master.
type TaskStats struct {
	Times TaskTimes `json:"times"`
	// StageIn is sandbox preparation time on the worker.
	StageIn time.Duration `json:"stage_in"`
	// Exec is executor wall time.
	Exec time.Duration `json:"exec"`
	// StageOut is output collection time on the worker.
	StageOut time.Duration `json:"stage_out"`
	// CacheHits / CacheMisses count cacheable-input resolutions.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// BytesIn / BytesOut are payload volumes for this task.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
}

// Result is the completed (or failed) outcome of a task.
type Result struct {
	TaskID   int64      `json:"task_id"`
	Tag      string     `json:"tag,omitempty"`
	Worker   string     `json:"worker"`
	ExitCode int        `json:"exit_code"`
	Error    string     `json:"error,omitempty"`
	Outputs  []FileSpec `json:"outputs,omitempty"`
	Stats    TaskStats  `json:"stats"`
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

// PermanentlyFailed reports whether the task failed with its retry budget
// exhausted — the typed signal that resubmitting is pointless.
func (r *Result) PermanentlyFailed() bool { return r.Permanent && r.Failed() }

// ExecContext is handed to an executor on the worker.
type ExecContext struct {
	// Task is the task being executed (do not mutate).
	Task *Task
	// Sandbox is the task's scratch directory; inputs are staged here and
	// outputs are collected from here.
	Sandbox string
	// WorkerName identifies the executing worker.
	WorkerName string
	// Trace is the execution's trace context (the worker's execute span
	// when tracing is on, the incoming wire context when only upstream
	// traces, zero otherwise). Executors propagate it into chirp, squid,
	// and xrootd operations.
	Trace trace.Context
	// Tracer records executor-internal spans; nil when tracing is off.
	Tracer *trace.Tracer

	// held is what the executor leaves for the worker. The worker
	// allocates it, so a copy of the context (a shim re-tagging Trace)
	// still writes where the worker reads.
	held *heldState
}

// heldState is one task's hand-over from executor to worker.
type heldState struct {
	outputs []FileSpec // declared outputs handed over in memory
	sandbox bool       // the sandbox directory was created
}

// EnsureSandbox creates the sandbox directory on demand. Workers create
// sandboxes lazily — a task that stages no input files never touches the
// filesystem on the hot path — so an executor that writes files into the
// sandbox must call this first.
func (c *ExecContext) EnsureSandbox() error {
	h := c.hold()
	if h.sandbox {
		return nil // the worker, or an earlier call, made and counted it
	}
	if err := os.MkdirAll(c.Sandbox, 0o755); err != nil {
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

// SetOutput hands the declared output name over in memory: the worker
// returns data to the master, whether the task then succeeds or fails,
// without the file ever existing in the sandbox. data must not be
// modified afterwards. Call it from the executor's own goroutine.
func (c *ExecContext) SetOutput(name string, data []byte) {
	h := c.hold()
	h.outputs = append(h.outputs, FileSpec{Name: name, Data: data})
}

// collect returns a declared output: what the executor handed over in
// memory, else the sandbox file.
func (h *heldState) collect(sandbox, name string) ([]byte, error) {
	if data, ok := h.output(name); ok {
		return data, nil
	}
	return os.ReadFile(filepath.Join(sandbox, filepath.FromSlash(name)))
}

func (h *heldState) output(name string) ([]byte, bool) {
	if h != nil {
		for _, f := range h.outputs {
			if f.Name == name {
				return f.Data, true
			}
		}
	}
	return nil, false
}

// filesCreated counts the sandbox directories and files this process's
// workers and executors made: the per-task file-system cost that the hot
// path is pinned to keep at zero (BENCH_dataplane.json, files/op).
var filesCreated atomic.Int64

// FilesCreated returns the process-wide count of sandbox mkdirs
// (EnsureSandbox included) and staged input files.
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
