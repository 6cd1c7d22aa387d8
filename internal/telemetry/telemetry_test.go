package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_c_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("t_g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	// Re-registration returns the same series.
	if r.Counter("t_c_total", "other help") != c {
		t.Fatal("re-registered counter is a different instance")
	}
}

func TestNilInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h")
	g := r.Gauge("x", "h")
	h := r.Histogram("x_seconds", "h", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	r.GaugeFunc("x_fn", "h", func() float64 { return 1 })
	r.SetClock(func() float64 { return 1 })
	if r.Now() != 0 {
		t.Fatal("nil registry Now must be 0")
	}
	NewStageHistograms(nil).Observe(StageSetup, 1)
	var l *EventLog
	l.Emit("task", 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBucketEdges pins the ≤-upper-bound (Prometheus "le")
// semantics: a value exactly on an edge lands in that edge's bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_h_seconds", "help", []float64{1, 5, 10})
	for _, v := range []float64{0, 1, 1.0001, 5, 9.999, 10, 10.0001, 1e12} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // (≤1)=({0,1}), (≤5)=({1.0001,5}), (≤10)=({9.999,10}), +Inf=({10.0001,1e12})
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	// Cumulative counts in the exposition.
	var b bytes.Buffer
	r.WritePrometheus(&b)
	for _, line := range []string{
		`t_h_seconds_bucket{le="1"} 2`,
		`t_h_seconds_bucket{le="5"} 4`,
		`t_h_seconds_bucket{le="10"} 6`,
		`t_h_seconds_bucket{le="+Inf"} 8`,
		`t_h_seconds_count 8`,
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// TestLabelCardinalityLimit verifies that a label explosion collapses into
// the overflow series instead of growing without bound.
func TestLabelCardinalityLimit(t *testing.T) {
	r := NewRegistry()
	r.SetMaxSeries(4)
	cv := r.CounterVec("t_card_total", "help", "code")
	for i := 0; i < 100; i++ {
		cv.With(fmt.Sprintf("code-%d", i)).Inc()
	}
	f := r.families["t_card_total"]
	f.mu.Lock()
	n := len(f.series)
	f.mu.Unlock()
	if n > 5 { // 4 real + 1 overflow
		t.Fatalf("family grew to %d series despite bound 4", n)
	}
	over := cv.With("_other")
	if over.Value() != 96 {
		t.Fatalf("overflow series = %d, want 96", over.Value())
	}
	if r.dropped.Value() != 96 {
		t.Fatalf("dropped counter = %d, want 96", r.dropped.Value())
	}
	// Existing series keep working.
	if cv.With("code-1").Value() != 1 {
		t.Fatal("pre-bound series lost")
	}
}

// TestConcurrentCounters hammers the instruments from many goroutines; run
// under -race (the Makefile check target does).
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_conc_total", "help")
	g := r.Gauge("t_conc", "help")
	h := r.Histogram("t_conc_seconds", "help", []float64{1, 10})
	cv := r.CounterVec("t_conc_labeled_total", "help", "w")
	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lc := cv.With(fmt.Sprintf("w%d", w%4))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 20))
				lc.Inc()
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	for i := 0; i < 10; i++ {
		var b bytes.Buffer
		r.WritePrometheus(&b)
		r.Snapshot()
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Fatalf("gauge = %g, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	var total int64
	for w := 0; w < 4; w++ {
		total += cv.With(fmt.Sprintf("w%d", w)).Value()
	}
	if total != workers*iters {
		t.Fatalf("labelled sum = %d, want %d", total, workers*iters)
	}
}

// TestStageObserve: each stage's durations land in that stage's series of
// lobster_task_stage_seconds, and an out-of-range stage is ignored.
func TestStageObserve(t *testing.T) {
	r := NewRegistry()
	st := NewStageHistograms(r)
	st.Observe(StageSubmit, 10)
	st.Observe(StageSetup, 30)
	st.Observe(StageSetup, 12)
	st.Observe(numStages, 99)

	if got := st.stages[StageSubmit].Sum(); got != 10 {
		t.Errorf("submit stage sum = %g, want 10", got)
	}
	if h := st.stages[StageSetup]; h.Sum() != 42 || h.Count() != 2 {
		t.Errorf("setup stage = %g over %d, want 42 over 2", h.Sum(), h.Count())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `lobster_task_stage_seconds_count{stage="setup"} 2`) {
		t.Errorf("exposition lacks the setup stage count:\n%s", buf.String())
	}
}

// TestMetricsExpositionGolden pins the exact text exposition for a small
// fixed registry, the /metrics wire format contract.
func TestMetricsExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lobster_demo_requests_total", "Requests served.")
	c.Add(3)
	cv := r.CounterVec("lobster_demo_errors_total", "Errors by code.", "code")
	cv.With("20").Add(2)
	cv.With("40").Inc()
	g := r.Gauge("lobster_demo_queue", "Queue depth.")
	g.Set(7)
	r.GaugeFunc("lobster_demo_ratio", "A computed ratio.", func() float64 { return 0.5 })
	h := r.Histogram("lobster_demo_wait_seconds", "Wait time.", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(99)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lobster_demo_errors_total Errors by code.
# TYPE lobster_demo_errors_total counter
lobster_demo_errors_total{code="20"} 2
lobster_demo_errors_total{code="40"} 1
# HELP lobster_demo_queue Queue depth.
# TYPE lobster_demo_queue gauge
lobster_demo_queue 7
# HELP lobster_demo_ratio A computed ratio.
# TYPE lobster_demo_ratio gauge
lobster_demo_ratio 0.5
# HELP lobster_demo_requests_total Requests served.
# TYPE lobster_demo_requests_total counter
lobster_demo_requests_total 3
# HELP lobster_demo_wait_seconds Wait time.
# TYPE lobster_demo_wait_seconds histogram
lobster_demo_wait_seconds_bucket{le="0.5"} 1
lobster_demo_wait_seconds_bucket{le="2"} 2
lobster_demo_wait_seconds_bucket{le="+Inf"} 3
lobster_demo_wait_seconds_sum 100.25
lobster_demo_wait_seconds_count 3
# HELP lobster_telemetry_dropped_series_total Series discarded because a metric family exceeded its label-cardinality bound.
# TYPE lobster_telemetry_dropped_series_total counter
lobster_telemetry_dropped_series_total 0
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	now := 5.0
	l := NewEventLog(&buf, func() float64 { return now })
	type payload struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	l.Emit("task", payload{A: 1, B: "x"})
	now = 6
	l.Emit("task", payload{A: 2, B: "y"})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Emitted() != 2 {
		t.Fatalf("emitted = %d, want 2", l.Emitted())
	}
	var got []payload
	var times []float64
	err := ReadEvents(&buf, func(ev Event) error {
		var p payload
		if err := jsonUnmarshal(ev.Data, &p); err != nil {
			return err
		}
		got = append(got, p)
		times = append(times, ev.Time)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (payload{1, "x"}) || got[1] != (payload{2, "y"}) {
		t.Fatalf("round trip %+v", got)
	}
	if times[0] != 5 || times[1] != 6 {
		t.Fatalf("times %v", times)
	}
}

func TestSnapshotAndStatus(t *testing.T) {
	r := NewRegistry()
	r.SetClock(func() float64 { return 99 })
	r.Counter("a_total", "h").Add(4)
	h := r.Histogram("b_seconds", "h", []float64{1})
	h.Observe(2)
	h.Observe(4)
	st := r.Snapshot()
	if st.Time != 99 {
		t.Fatalf("snapshot time = %g", st.Time)
	}
	byName := map[string]SeriesPoint{}
	for _, p := range st.Series {
		byName[p.Name] = p
	}
	if byName["a_total"].Value != 4 {
		t.Fatalf("a_total = %+v", byName["a_total"])
	}
	if p := byName["b_seconds"]; p.Count != 2 || p.Mean != 3 {
		t.Fatalf("b_seconds = %+v", p)
	}
}
