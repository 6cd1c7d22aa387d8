package health

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
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
	f := p.byName["lobster_wq_tasks_done_total"]
	if f == nil || f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Fatalf("counter family wrong: %+v", f)
	}
	if f.Help != "Task results collected." {
		t.Fatalf("help = %q", f.Help)
	}
	// Histogram sub-series land on the base family.
	h := p.byName["lobster_wq_worker_exec_seconds"]
	if h == nil || h.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", h)
	}
	if len(h.Samples) != 5 {
		t.Fatalf("histogram samples = %d, want 5 (3 buckets + sum + count)", len(h.Samples))
	}
	// Labelled gauge.
	g := p.byName["lobster_wq_shard_queue_depth"]
	if len(g.Samples) != 2 || labelOf(g.Samples[1], "shard") != "1" || g.Samples[1].Value != 3 {
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
	f := p.byName["m"]
	if f.Help != "escaped\nhelp\\line" {
		t.Fatalf("help = %q", f.Help)
	}
	if got := labelOf(f.Samples[0], "path"); got != "a\"b\\c\nd" {
		t.Fatalf("label = %q", got)
	}
	// Escapes survive a trip through the one writer.
	back := rewrite(t, p.Series())
	if got := back[0].Labels["path"]; got != "a\"b\\c\nd" {
		t.Fatalf("round-tripped label = %q", got)
	}
}

// writeFamilies writes series through the one exposition writer, grouped
// by family: one TYPE line each, the family's lines contiguous and in
// the order given, families sorted by name.
func writeFamilies(e *telemetry.Expo, series []Series) {
	byFamily := make(map[string][]int)
	var names []string
	for i := range series {
		name := series[i].Family
		if name == "" {
			name = series[i].Name
		}
		if _, ok := byFamily[name]; !ok {
			names = append(names, name)
		}
		byFamily[name] = append(byFamily[name], i)
	}
	sort.Strings(names)
	var labels []Label
	for _, name := range names {
		idx := byFamily[name]
		e.Type(name, series[idx[0]].Type)
		for _, i := range idx {
			s := &series[i]
			labels = labels[:0]
			for k, v := range s.Labels {
				labels = append(labels, Label{Name: k, Value: v})
			}
			sort.Slice(labels, func(a, b int) bool { return labels[a].Name < labels[b].Name })
			e.Sample(s.Name, labels, s.Value)
		}
	}
}

// rewrite writes series through the one writer and parses the result
// back.
func rewrite(t testing.TB, series []Series) []Series {
	t.Helper()
	var e telemetry.Expo
	writeFamilies(&e, series)
	var b strings.Builder
	e.WriteTo(&b)
	p, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("re-parse of the writer's page failed: %v\npage:\n%s", err, b.String())
	}
	return p.Series()
}

// canonical renders series as sorted lines, so two pages that hold the
// same samples compare equal whatever order they were written in.
func canonical(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		keys := make([]string, 0, len(s.Labels))
		for k, v := range s.Labels {
			keys = append(keys, strconv.Quote(k)+"="+strconv.Quote(v))
		}
		sort.Strings(keys)
		v := s.Value
		switch {
		case math.IsNaN(v):
			v = math.NaN() // every NaN is one
		case v == 0:
			v = 0 // -0 is written as 0
		}
		out[i] = fmt.Sprintf("%q %s {%s} %x", s.Name, s.Type, strings.Join(keys, ","), math.Float64bits(v))
	}
	sort.Strings(out)
	return out
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

// TestRoundTripRegistry pins the core property: the parser reads exactly
// what the telemetry registry holds, and the one writer writes it back
// unchanged.
func TestRoundTripRegistry(t *testing.T) {
	var orig strings.Builder
	if err := buildRegistry().WritePrometheus(&orig); err != nil {
		t.Fatal(err)
	}
	p, err := ParseMetrics(strings.NewReader(orig.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"lobster_test_events_total":                   42,
		"lobster_test_depth":                          17,
		`lobster_test_by_kind_total{kind="alpha"}`:    3,
		`lobster_test_by_kind_total{kind="beta"}`:     5,
		"lobster_test_derived":                        2.5,
		`lobster_test_latency_seconds_bucket{le="1"}`: 3,
		"lobster_test_latency_seconds_sum":            26.25,
		"lobster_test_latency_seconds_count":          5,
	}
	series := p.Series()
	got := make(map[string]float64, len(series))
	for _, s := range series {
		key := s.Name
		for k, v := range s.Labels {
			key += "{" + k + "=" + strconv.Quote(v) + "}"
		}
		got[key] = s.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if f := p.byName["lobster_test_latency_seconds"]; f == nil || f.Type != "histogram" || len(f.Samples) != 6 {
		t.Fatalf("histogram family = %+v", f)
	}
	if a, b := canonical(series), canonical(rewrite(t, series)); !slices.Equal(a, b) {
		t.Fatalf("rewritten page differs:\n%v\n%v", a, b)
	}
}

// TestRegistryLabelRoundTrip: a label value holding every byte the
// format escapes, and two it does not (a tab, a non-ASCII rune), leaves a
// registry and reaches the parser exactly as it went in. The value is
// escaped once: quoted a second time, a"b would arrive as a\"b and the
// tab as a literal \t.
func TestRegistryLabelRoundTrip(t *testing.T) {
	const path = "a\"b\\c\nd\té"
	reg := telemetry.NewRegistry()
	reg.GaugeVec("m", "h", "path").With(path).Set(1)
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	p, err := ParseMetrics(strings.NewReader(page.String()))
	if err != nil {
		t.Fatal(err)
	}
	if f := p.byName["m"]; f != nil && len(f.Samples) == 1 {
		if got := labelOf(f.Samples[0], "path"); got != path {
			t.Fatalf("label = %q, want %q\npage:\n%s", got, path, page.String())
		}
		return
	}
	t.Fatalf("series m missing from the page:\n%s", page.String())
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

// FuzzPromParse: any input that parses survives the one writer — parse,
// write through it, parse again, and the series are equal. Corpus seeds
// cover the emitter dialect; the fuzzer explores escapes, label shapes,
// and number formats.
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
		series := p.Series()
		if a, b := canonical(series), canonical(rewrite(t, series)); !slices.Equal(a, b) {
			t.Fatalf("series changed through the writer:\n--- parsed ---\n%s\n--- rewritten ---\n%s",
				strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	})
}

// labelOf returns the value of s's label name, or "".
func labelOf(s Sample, name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}
