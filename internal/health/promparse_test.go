package health

import (
	"strings"
	"testing"

	"lobster/internal/telemetry"
)

const samplePage = `# HELP lobster_wq_tasks_done_total Task results collected.
# TYPE lobster_wq_tasks_done_total counter
lobster_wq_tasks_done_total 42
# HELP lobster_wq_tasks_running Tasks in flight.
# TYPE lobster_wq_tasks_running gauge
lobster_wq_tasks_running 7
# HELP lobster_wq_worker_exec_seconds Execution stage time.
# TYPE lobster_wq_worker_exec_seconds histogram
lobster_wq_worker_exec_seconds_bucket{le="0.1"} 3
lobster_wq_worker_exec_seconds_bucket{le="1"} 9
lobster_wq_worker_exec_seconds_bucket{le="+Inf"} 12
lobster_wq_worker_exec_seconds_sum 14.5
lobster_wq_worker_exec_seconds_count 12
# HELP lobster_wq_shard_queue_depth Ready tasks per shard.
# TYPE lobster_wq_shard_queue_depth gauge
lobster_wq_shard_queue_depth{shard="0"} 5
lobster_wq_shard_queue_depth{shard="1"} 3
`

func TestParseMetrics(t *testing.T) {
	p, err := ParseMetrics(strings.NewReader(samplePage))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Families); got != 4 {
		t.Fatalf("families = %d, want 4", got)
	}
	f := p.Family("lobster_wq_tasks_done_total")
	if f == nil || f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Fatalf("counter family wrong: %+v", f)
	}
	if f.Help != "Task results collected." {
		t.Fatalf("help = %q", f.Help)
	}
	// Histogram sub-series land on the base family.
	h := p.Family("lobster_wq_worker_exec_seconds")
	if h == nil || h.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", h)
	}
	if len(h.Samples) != 5 {
		t.Fatalf("histogram samples = %d, want 5 (3 buckets + sum + count)", len(h.Samples))
	}
	// Labelled gauge.
	g := p.Family("lobster_wq_shard_queue_depth")
	if len(g.Samples) != 2 || g.Samples[1].Label("shard") != "1" || g.Samples[1].Value != 3 {
		t.Fatalf("labelled gauge wrong: %+v", g.Samples)
	}
}

func TestParseMetricsEscapes(t *testing.T) {
	in := `# HELP m escaped\nhelp\\line
# TYPE m gauge
m{path="a\"b\\c\nd"} 1
`
	p, err := ParseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f := p.Family("m")
	if f.Help != "escaped\nhelp\\line" {
		t.Fatalf("help = %q", f.Help)
	}
	if got := f.Samples[0].Label("path"); got != "a\"b\\c\nd" {
		t.Fatalf("label = %q", got)
	}
	// Escapes survive a render round trip.
	p2, err := ParseMetrics(strings.NewReader(p.Render()))
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Family("m").Samples[0].Label("path"); got != "a\"b\\c\nd" {
		t.Fatalf("round-tripped label = %q", got)
	}
}

func TestParseMetricsErrors(t *testing.T) {
	for _, bad := range []string{
		"name_only\n",
		"m{unterminated=\"v\n",
		"m{x=\"v\"} notanumber\n",
		"# TYPE m sideways\n",
		"{empty=\"\"} 1\n",
	} {
		if _, err := ParseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseMetrics(%q) succeeded, want error", bad)
		}
	}
	// A timestamp after the value is tolerated, not an error.
	if _, err := ParseMetrics(strings.NewReader("m 1 1712345678\n")); err != nil {
		t.Errorf("timestamped sample rejected: %v", err)
	}
}

// buildRegistry populates a registry the way the real components do:
// counters, gauges, labelled vecs, gauge funcs, and histograms.
func buildRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.SetClock(func() float64 { return 100 })
	c := reg.Counter("lobster_test_events_total", "Events observed.")
	c.Add(41)
	c.Inc()
	g := reg.Gauge("lobster_test_depth", "Current depth.")
	g.Set(17)
	v := reg.CounterVec("lobster_test_by_kind_total", "Events by kind.", "kind")
	v.With("alpha").Add(3)
	v.With("beta").Add(5)
	reg.GaugeFunc("lobster_test_derived", "Computed at scrape.", func() float64 { return 2.5 })
	h := reg.Histogram("lobster_test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, obs := range []float64{0.05, 0.5, 0.7, 5, 20} {
		h.Observe(obs)
	}
	return reg
}

// TestRoundTripRegistry pins the core property: the parser re-renders
// exactly what the telemetry registry emits, byte for byte.
func TestRoundTripRegistry(t *testing.T) {
	reg := buildRegistry()
	var orig strings.Builder
	if err := reg.WritePrometheus(&orig); err != nil {
		t.Fatal(err)
	}
	p, err := ParseMetrics(strings.NewReader(orig.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Render(); got != orig.String() {
		t.Fatalf("round trip not byte-identical:\n--- emitted ---\n%s\n--- re-rendered ---\n%s", orig.String(), got)
	}
}

func TestPageSeries(t *testing.T) {
	p, err := ParseMetrics(strings.NewReader(samplePage))
	if err != nil {
		t.Fatal(err)
	}
	series := p.Series()
	want := 1 + 1 + 5 + 2
	if len(series) != want {
		t.Fatalf("series = %d, want %d", len(series), want)
	}
	found := false
	for _, s := range series {
		if s.Name == "lobster_wq_shard_queue_depth" && s.Labels["shard"] == "0" {
			found = true
			if s.Value != 5 || s.Type != "gauge" {
				t.Fatalf("shard series wrong: %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("shard series missing from flattening")
	}
}

// FuzzPromParse: any input that parses must re-render to a fixpoint —
// parse(render(parse(x))) renders identically. Corpus seeds cover the
// emitter dialect; the fuzzer explores escapes, label shapes, and number
// formats.
func FuzzPromParse(f *testing.F) {
	f.Add(samplePage)
	f.Add("m 1\n")
	f.Add("m{a=\"b\"} 2.5e-3\n")
	f.Add("# HELP m multi\\nline\n# TYPE m histogram\nm_bucket{le=\"+Inf\"} 1\nm_sum 2\nm_count 1\n")
	f.Add("m{p=\"a\\\"b\\\\c\\nd\"} +Inf\n")
	var regPage strings.Builder
	buildRegistry().WritePrometheus(&regPage)
	f.Add(regPage.String())
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParseMetrics(strings.NewReader(input))
		if err != nil {
			return
		}
		r1 := p.Render()
		p2, err := ParseMetrics(strings.NewReader(r1))
		if err != nil {
			t.Fatalf("re-parse of own render failed: %v\nrender:\n%s", err, r1)
		}
		if r2 := p2.Render(); r2 != r1 {
			t.Fatalf("render not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", r1, r2)
		}
	})
}
