package wq

import (
	"bytes"
	"testing"
	"time"

	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// traceSetup builds one tracer over a buffer-backed event log.
func traceSetup(t *testing.T) (*trace.Tracer, *bytes.Buffer, *telemetry.EventLog) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	log := telemetry.NewEventLog(&buf, nil)
	tr := trace.New(trace.Config{Registry: reg, Log: log})
	return tr, &buf, log
}

// tracedMaster and tracedWorker are newMaster and a one-core newWorker
// built with tr.
func tracedMaster(t *testing.T, tr *trace.Tracer) *Master {
	t.Helper()
	m, err := NewMaster("127.0.0.1:0", nil, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func tracedWorker(t *testing.T, addr, name string, tr *trace.Tracer) {
	t.Helper()
	w, err := NewWorker(addr, name, 1, t.TempDir(), testRegistry(), nil, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
}

func records(t *testing.T, buf *bytes.Buffer, log *telemetry.EventLog) []trace.Record {
	t.Helper()
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestTraceMalformedContextDegrades submits tasks whose Trace field
// holds garbage: the master must mint a fresh root (never error) and
// the task must complete normally.
func TestTraceMalformedContextDegrades(t *testing.T) {
	tr, buf, log := traceSetup(t)
	m := tracedMaster(t, tr)
	tracedWorker(t, m.Addr(), "w0", tr)

	for _, garbage := range []string{
		"not-a-trace", "lt1-xx-yy-zz", "lt1-0000000000000000-0000000000000000-01", "lt9-....",
	} {
		id, err := m.Submit(&Task{
			Func: "echo", Args: argsOf(testArgs{Text: "x"}), Trace: garbage,
		})
		if err != nil {
			t.Fatalf("Submit with trace %q: %v", garbage, err)
		}
		r, ok := m.WaitResult(10 * time.Second)
		if !ok || r.Failed() || r.TaskID != id {
			t.Fatalf("task with trace %q: %+v", garbage, r)
		}
	}

	trees := trace.BuildTrees(records(t, buf, log))
	if len(trees) != 4 {
		t.Fatalf("got %d traces, want 4 fresh roots", len(trees))
	}
	for _, tree := range trees {
		if tree.Root.Parent != "" || tree.Orphans != 0 {
			t.Errorf("degraded trace %s: parent=%q orphans=%d",
				tree.TraceID, tree.Root.Parent, tree.Orphans)
		}
	}
}

// TestTraceRequeueSpans kills a worker mid-task and checks the trace
// records the lost dispatch attempt and the successful retry under one
// root.
func TestTraceRequeueSpans(t *testing.T) {
	tr, buf, log := traceSetup(t)
	m := tracedMaster(t, tr)
	w1, release := holdWorker(t, m.Addr(), "victim", 1)
	m.Submit(&Task{Func: "hold"})
	// Let the task dispatch, then evict its worker.
	waitStats(t, m, "task never dispatched", running(1))
	evictHolding(t, m, w1, release, requeued(1))
	tracedWorker(t, m.Addr(), "rescuer", tr)
	r, ok := m.WaitResult(30 * time.Second)
	if !ok {
		t.Fatal("no result after requeue")
	}
	if r.Failed() || r.Requeues != 1 {
		t.Fatalf("result: %+v", r)
	}

	trees := trace.BuildTrees(records(t, buf, log))
	if len(trees) != 1 {
		t.Fatalf("got %d traces, want 1", len(trees))
	}
	dispatches, lost := 0, 0
	var visit func(nd *trace.Node)
	visit = func(nd *trace.Node) {
		if nd.Name == "dispatch" {
			dispatches++
			if nd.Attrs["lost"] != "" {
				lost++
			}
		}
		for _, c := range nd.Children {
			visit(c)
		}
	}
	visit(trees[0].Root)
	if dispatches != 2 || lost != 1 {
		t.Fatalf("dispatch spans = %d (lost %d), want 2 (1 lost)", dispatches, lost)
	}
}
