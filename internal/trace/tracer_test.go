package trace

import (
	"bytes"
	"io"
	"testing"

	"lobster/internal/telemetry"
)

// testTracer builds an enabled tracer on a manual clock writing into buf.
func testTracer(buf *bytes.Buffer, now *float64, maxPerSec float64) (*Tracer, *telemetry.Registry, *telemetry.EventLog) {
	reg := telemetry.NewRegistry()
	clock := func() float64 { return *now }
	reg.SetClock(clock)
	log := telemetry.NewEventLog(buf, clock)
	tr := New(Config{Registry: reg, Log: log, MaxTracesPerSec: maxPerSec, Seed: 42})
	return tr, reg, log
}

func drain(t *testing.T, buf *bytes.Buffer, log *telemetry.EventLog) []Record {
	t.Helper()
	if err := log.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reading records: %v", err)
	}
	return recs
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.Root("master", "task", "b")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.Attr("k", "v")
	s.AttrInt("n", 1)
	s.End()
	s.EndAt(5)
	if ctx := s.Context(); ctx.Valid() {
		t.Fatal("nil span has a valid context")
	}
	child := tr.Start(Context{TraceID: 1, SpanID: 2, Sampled: true}, "worker", "x")
	if child != nil {
		t.Fatal("nil tracer returned a child span")
	}
	// New with a nil log is the disabled configuration.
	if New(Config{Registry: telemetry.NewRegistry()}) != nil {
		t.Fatal("New without a log should be nil")
	}
}

func TestSpanRecording(t *testing.T) {
	var buf bytes.Buffer
	now := 0.0
	tr, _, log := testTracer(&buf, &now, 0)

	root := tr.Root("master", "task", "cat=analysis")
	root.AttrInt("task_id", 7)
	now = 1.0
	child := tr.Start(root.Context(), "worker", "stage_in")
	child.Attr("server", "se01:9094")
	now = 3.0
	child.End()
	now = 4.0
	root.End()
	root.End() // double End is a no-op

	recs := drain(t, &buf, log)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Children end (and are recorded) before their parents.
	c, r := recs[0], recs[1]
	if c.Name != "stage_in" || r.Name != "task" {
		t.Fatalf("unexpected order: %q then %q", c.Name, r.Name)
	}
	if c.Trace != r.Trace {
		t.Fatalf("trace IDs differ: %s vs %s", c.Trace, r.Trace)
	}
	if c.Parent != r.Span {
		t.Fatalf("child parent %s != root span %s", c.Parent, r.Span)
	}
	if r.Parent != "" {
		t.Fatalf("root has parent %s", r.Parent)
	}
	if c.Start != 1 || c.End != 3 || r.Start != 0 || r.End != 4 {
		t.Fatalf("bad times: child [%g,%g] root [%g,%g]", c.Start, c.End, r.Start, r.End)
	}
	if c.Attrs["server"] != "se01:9094" || r.Attrs["task_id"] != "7" {
		t.Fatalf("attrs lost: child %v root %v", c.Attrs, r.Attrs)
	}
	if ctx := root.Context(); ctx.Baggage != "cat=analysis" {
		t.Fatalf("baggage lost: %+v", ctx)
	}
	if got := child.Context().Baggage; got != "cat=analysis" {
		t.Fatalf("baggage not inherited: %q", got)
	}
}

func TestStartWithInvalidParentBecomesRoot(t *testing.T) {
	var buf bytes.Buffer
	now := 0.0
	tr, _, log := testTracer(&buf, &now, 0)

	s := tr.Start(Context{}, "worker", "task")
	if !s.Context().Valid() {
		t.Fatal("degraded root has invalid context")
	}
	s.End()
	recs := drain(t, &buf, log)
	if len(recs) != 1 || recs[0].Parent != "" {
		t.Fatalf("degraded root not recorded as root: %+v", recs)
	}
}

func TestHeadSamplingRateBound(t *testing.T) {
	var buf bytes.Buffer
	now := 0.0
	tr, reg, log := testTracer(&buf, &now, 2) // 2 traces/sec, burst 2

	sampled := 0
	for i := 0; i < 10; i++ {
		s := tr.Root("master", "task", "")
		if s.Sampled() {
			sampled++
		}
		s.End()
	}
	if sampled != 2 {
		t.Fatalf("burst: sampled %d, want 2", sampled)
	}
	// A second later the bucket has refilled to the cap: two more
	// sampled roots, then drops resume.
	now = 1.0
	s1 := tr.Root("master", "task", "")
	s2 := tr.Root("master", "task", "")
	u := tr.Root("master", "task", "")
	if !s1.Sampled() || !s2.Sampled() {
		t.Fatal("tokens not refilled after 1s")
	}
	if u.Sampled() {
		t.Fatal("third root sampled past the refilled bucket")
	}
	// Unsampled roots still propagate a valid context with the 00 flag.
	ctx := u.Context()
	if !ctx.Valid() || ctx.Sampled {
		t.Fatalf("unsampled context wrong: %+v", ctx)
	}
	child := tr.Start(ctx, "worker", "x")
	if child.Sampled() {
		t.Fatal("child of unsampled parent is sampled")
	}
	child.Attr("k", "v") // must not allocate into the record path
	child.End()
	u.End()
	s1.End()
	s2.End()

	recs := drain(t, &buf, log)
	// 2 burst + 2 refilled = 4 recorded roots, nothing else.
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	sampledTotal, droppedTotal := tr.sampled.Value(), tr.dropped.Value()
	if sampledTotal != 4 || droppedTotal != 9 {
		t.Fatalf("sampled=%d dropped=%d, want 4/9", sampledTotal, droppedTotal)
	}
	if got := reg.Gauge("lobster_trace_max_traces_per_second", "").Value(); got != 2 {
		t.Fatalf("sampling bound gauge = %g, want 2", got)
	}
}

func TestDeterministicIDs(t *testing.T) {
	mk := func() []string {
		var buf bytes.Buffer
		now := 0.0
		tr, _, log := testTracer(&buf, &now, 0)
		for i := 0; i < 5; i++ {
			s := tr.Root("sim", "task", "")
			c := tr.Start(s.Context(), "sim", "execute")
			c.End()
			s.End()
		}
		var ids []string
		for _, r := range drain(t, &buf, log) {
			ids = append(ids, r.Trace+"/"+r.Span)
		}
		return ids
	}
	a, b := mk(), mk()
	if len(a) != 10 {
		t.Fatalf("got %d ids", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// BenchmarkDisabledTracer pins the disabled fast path to the telemetry
// bar: a nil tracer span round trip must stay in single-digit
// nanoseconds with zero allocations.
func BenchmarkDisabledTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start(Context{}, "worker", "stage_in")
		s.Attr("k", "v")
		s.End()
	}
}

// BenchmarkUnsampledSpan measures the sampled-out path: context
// propagation stays intact but nothing is recorded.
func BenchmarkUnsampledSpan(b *testing.B) {
	var buf bytes.Buffer
	now := 0.0
	tr, _, _ := testTracer(&buf, &now, 0)
	parent := Context{TraceID: 1, SpanID: 2, Sampled: false}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.StartAt(0, parent, "worker", "stage_in")
		s.Attr("k", "v")
		s.EndAt(1)
	}
}

// BenchmarkSampledSpan is what a recorded span costs: one sampled child
// span with one attribute, marshalled into an event log that writes to
// io.Discard, so the bytes and allocations are the tracer's and the
// log's own.
func BenchmarkSampledSpan(b *testing.B) {
	clock := func() float64 { return 0 }
	reg := telemetry.NewRegistry()
	reg.SetClock(clock)
	tr := New(Config{Registry: reg, Log: telemetry.NewEventLog(io.Discard, clock), Seed: 42})
	parent := Context{TraceID: 1, SpanID: 2, Sampled: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.StartAt(0, parent, "worker", "stage_in")
		s.Attr("k", "v")
		s.EndAt(1)
	}
}
