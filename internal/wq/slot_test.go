package wq

import (
	"reflect"
	"testing"
	"time"

	"lobster/internal/wrapper"
)

// TestSlotReuseLeavesNothingBehind runs three pairs of tasks on a worker
// of one core, so every task runs on the same slot record, and checks
// that the second task of each pair sees, and reports, nothing of the
// first: a merge task's inputs before an analysis task's arguments, a
// failure before a success, a handed-over report before none. core
// retries a processing success that carries no report, so a report left
// in the slot would let such a task through.
func TestSlotReuseLeavesNothingBehind(t *testing.T) {
	seen := make(chan Task, 1)
	m := newMaster(t)
	w, err := NewWorker(m.Addr(), "w0", 1, t.TempDir(), Registry{
		"record": func(ctx *ExecContext) error {
			task := *ctx.Task
			if task.Args != nil {
				args := *task.Args
				task.Args = &args
			}
			seen <- task
			return nil
		},
		"fail": func(ctx *ExecContext) error {
			ctx.SetReport(&wrapper.Report{ExitCode: 40, Failed: wrapper.SegStageIn, Error: "down"})
			return &ExitError{Code: 40, Msg: "stage_in"}
		},
		"report": func(ctx *ExecContext) error {
			ctx.SetReport(&wrapper.Report{Metrics: wrapper.Metrics{Events: 3}})
			return nil
		},
		"none": func(*ExecContext) error { return nil },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	run := func(task *Task) *Result {
		t.Helper()
		if _, err := m.Submit(task); err != nil {
			t.Fatal(err)
		}
		r, ok := m.WaitResult(10 * time.Second)
		if !ok {
			t.Fatalf("no result for %s", task.Func)
		}
		return r
	}

	merge := &Task{Func: "record", Tag: "merge", MaxRetries: 3,
		Args: &wrapper.Args{Inputs: []string{"/a", "/b"}, Output: "/m.root", SkipEvents: 5, Work: 2}}
	run(merge)
	if got := <-seen; !reflect.DeepEqual(got.Args, merge.Args) || got.Tag != "merge" {
		t.Fatalf("the merge task ran with %+v, args %+v", got, got.Args)
	}
	// The master gives a task without a retry budget its default, 5, not
	// the merge task's 3.
	analysis := &Task{Func: "record", Args: &wrapper.Args{LFN: "/store/f.root", Mode: "stream"}}
	run(analysis)
	if got := <-seen; !reflect.DeepEqual(got.Args, analysis.Args) || got.Tag != "" || got.MaxRetries != 5 {
		t.Errorf("the analysis task after a merge ran with %+v, args %+v", got, got.Args)
	}
	run(&Task{Func: "record"})
	if got := <-seen; got.Args != nil {
		t.Errorf("a task without arguments ran with %+v", got.Args)
	}

	if r := run(&Task{Func: "fail"}); r.ExitCode != 40 || r.Error == "" || r.Report == nil || r.Report.Error != "down" {
		t.Fatalf("the failure came back as %+v, report %+v", r, r.Report)
	}
	if r := run(&Task{Func: "report"}); r.Failed() || r.Report == nil || *r.Report != (wrapper.Report{Metrics: wrapper.Metrics{Events: 3}}) {
		t.Errorf("the success after a failure came back as %+v, report %+v", r, r.Report)
	}
	if r := run(&Task{Func: "none"}); r.Failed() || r.Report != nil {
		t.Errorf("a task that handed over no report came back as %+v, report %+v", r, r.Report)
	}
}
