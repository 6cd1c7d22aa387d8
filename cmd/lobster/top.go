package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"lobster/internal/health"
	"lobster/internal/tabulate"
	"lobster/internal/trace"
)

// sparkPoints is how many trailing samples the watch-mode sparklines
// show — one screen column per refresh.
const sparkPoints = 24

// topHistory is the short in-process history behind the watch mode's
// per-series sparklines: a fixed ring of the last sparkPoints refreshes
// per series, keyed by name and labels.
type topHistory struct {
	series map[string]*sparkRing
	seq    int // refresh counter: the ring slot and the sample clock
}

// sparkRing holds one series' values by refresh: slot seq%sparkPoints
// holds the value recorded at refresh seq.
type sparkRing struct {
	seq [sparkPoints]int
	val [sparkPoints]float64
}

func newTopHistory() *topHistory {
	return &topHistory{series: make(map[string]*sparkRing)}
}

// add records one value for the named series at the current refresh.
func (h *topHistory) add(name string, labels map[string]string, v float64) {
	key := seriesName(name, labels)
	r := h.series[key]
	if r == nil {
		r = new(sparkRing)
		h.series[key] = r
	}
	i := h.seq % sparkPoints
	r.seq[i], r.val[i] = h.seq, v
}

// spark renders the values the series recorded over the last
// sparkPoints refreshes as a sparkline.
func (h *topHistory) spark(name string, labels map[string]string) string {
	r := h.series[seriesName(name, labels)]
	if r == nil {
		return ""
	}
	vals := make([]float64, 0, sparkPoints)
	for seq := max(h.seq-sparkPoints+1, 1); seq <= h.seq; seq++ {
		if i := seq % sparkPoints; r.seq[i] == seq {
			vals = append(vals, r.val[i])
		}
	}
	if len(vals) < 2 {
		return ""
	}
	return tabulate.Spark(vals)
}

// seriesName renders a series as name{k=v,...}, labels sorted.
func seriesName(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// top scrapes baseURL/metrics — a lobster started with -http, a chirpd
// with -metrics or a lobster-fleet hub — and prints a dashboard to w: the
// per-segment runtime breakdown from the stage histograms (the live view
// of the Figure 8 accounting) and one table of the page's series. A hub's
// page, whose endpoint series carry an instance label, adds the endpoint
// table, the firing rules and the fleet aggregates per component. With
// watch it redraws every interval until interrupted, htop-style; a failed
// scrape keeps the last good data on screen under an explicit error
// banner with the data's age, rather than silently showing stale numbers
// or dying.
func top(w io.Writer, baseURL string, watch bool, interval time.Duration) error {
	src := &health.HTTPSource{BaseURL: baseURL}
	var last *topView
	var lastOK time.Time
	var hist *topHistory
	if watch {
		hist = newTopHistory()
	}
	for {
		series, err := src.Scrape()
		if err == nil {
			last, lastOK = newTopView(series), time.Now()
			last.record(hist)
		}
		if !watch {
			if err != nil {
				return err
			}
			fmt.Fprint(w, last.render(0, nil, nil))
			return nil
		}
		// Home the cursor and clear below rather than clearing the
		// whole screen: no flicker between refreshes.
		fmt.Fprint(w, "\033[H\033[J")
		if last == nil {
			fmt.Fprintf(w, "lobster top: no successful scrape yet: %v\n", err)
		} else {
			fmt.Fprint(w, last.render(time.Since(lastOK), err, hist))
		}
		time.Sleep(interval)
	}
}

// The hub's scrape gauges, drawn as the endpoint table rather than rows.
const (
	endpointFailures = "lobster_fleet_endpoint_scrape_failures"
	endpointAge      = "lobster_fleet_endpoint_scrape_age_seconds"
)

// allInstances keys a fleet aggregate's sparkline apart from a row of
// the same name.
var allInstances = map[string]string{"instance": "*"}

// topView is one scraped page, digested for the dashboard.
type topView struct {
	samples   int      // lines on the page
	rows      []topRow // series without an instance label
	segments  string   // the rendered runtime breakdown; "" with no stage time
	endpoints []topEndpoint
	firing    []string
	agg       []health.FleetSeries // the endpoints' series, per component
}

// topRow is one line of the telemetry table: a series, or a histogram
// folded into one n=… mean=… row from its _sum and _count.
type topRow struct {
	name   string
	labels map[string]string
	typ    string
	value  float64 // a histogram's mean
	count  float64 // a histogram's observations
}

// topEndpoint is one endpoint of a hub, from its scrape gauges.
type topEndpoint struct {
	name, component string
	fails, age      float64
	series          int
}

func newTopView(series []health.Series) *topView {
	v := &topView{samples: len(series), segments: renderSegments(series)}
	var fleet []health.Series
	hists := make(map[string]int)     // histogram row index by name{labels}
	endpoints := make(map[string]int) // endpoint index by instance
	perInstance := make(map[string]int)
	for _, s := range series {
		inst := s.Label("instance")
		if s.Name == endpointFailures || s.Name == endpointAge {
			i, ok := endpoints[inst]
			if !ok {
				i = len(v.endpoints)
				endpoints[inst] = i
				v.endpoints = append(v.endpoints, topEndpoint{name: inst, component: s.Label("component")})
			}
			if s.Name == endpointFailures {
				v.endpoints[i].fails = s.Value
			} else {
				v.endpoints[i].age = s.Value
			}
			continue
		}
		if s.Name == "lobster_fleet_rule_firing" && s.Value > 0 {
			v.firing = append(v.firing, s.Label("rule"))
		}
		switch {
		case inst != "":
			fleet = append(fleet, s)
			perInstance[inst]++
		case s.Type != "histogram":
			v.rows = append(v.rows, topRow{name: s.Name, labels: s.Labels, typ: s.Type, value: s.Value})
		case !strings.HasSuffix(s.Name, "_bucket"):
			key := seriesName(s.Family, s.Labels)
			i, ok := hists[key]
			if !ok {
				i = len(v.rows)
				hists[key] = i
				v.rows = append(v.rows, topRow{name: s.Family, labels: s.Labels, typ: s.Type})
			}
			if strings.HasSuffix(s.Name, "_count") {
				v.rows[i].count = s.Value
			} else {
				v.rows[i].value = s.Value
			}
		}
	}
	for i := range v.rows {
		if r := &v.rows[i]; r.typ == "histogram" && r.count > 0 {
			r.value /= r.count // the sum until now
		}
	}
	for i := range v.endpoints {
		v.endpoints[i].series = perInstance[v.endpoints[i].name]
	}
	if len(fleet) > 0 {
		v.agg = (&health.Fleet{Series: fleet}).Aggregate()
	}
	return v
}

// record adds this scrape to the watch-mode history (nil: one-shot).
func (v *topView) record(h *topHistory) {
	if h == nil {
		return
	}
	h.seq++
	for i := range v.rows {
		h.add(v.rows[i].name, v.rows[i].labels, v.rows[i].value)
	}
	for _, a := range v.agg {
		h.add(a.Name, allInstances, a.Total)
	}
}

// render draws the dashboard. age is how long ago the data was scraped
// (0 = fresh this cycle); scrapeErr, when non-nil, is the error that kept
// this cycle from refreshing it; hist, when non-nil (watch mode), adds a
// per-series sparkline over the recent refreshes.
func (v *topView) render(age time.Duration, scrapeErr error, hist *topHistory) string {
	var b strings.Builder
	if scrapeErr != nil {
		fmt.Fprintf(&b, "!! SCRAPE FAILED: %v\n!! showing data %.1fs old\n", scrapeErr, age.Seconds())
	}
	fmt.Fprintf(&b, "lobster metrics: %d samples", v.samples)
	if len(v.endpoints) > 0 {
		fmt.Fprintf(&b, ", a fleet hub over %d endpoints", len(v.endpoints))
	}
	b.WriteByte('\n')
	if v.segments != "" {
		b.WriteString(v.segments)
		b.WriteByte('\n')
	}

	headers := []string{"series", "type", "value"}
	if hist != nil {
		headers = append(headers, "trend")
	}
	tb := tabulate.NewTable("Telemetry", headers...)
	for i := range v.rows {
		r := &v.rows[i]
		val := fmt.Sprintf("%g", r.value)
		if r.typ == "histogram" {
			val = fmt.Sprintf("n=%d mean=%.4g", int64(r.count), r.value)
		}
		if hist != nil {
			tb.Row(seriesName(r.name, r.labels), r.typ, val, hist.spark(r.name, r.labels))
		} else {
			tb.Row(seriesName(r.name, r.labels), r.typ, val)
		}
	}
	b.WriteString(tb.Render())
	b.WriteByte('\n')
	v.renderFleet(&b, hist)
	return b.String()
}

// renderFleet draws what only a hub's page holds: per-endpoint scrape
// health with an age column, the firing rules, and the fleet aggregates
// broken down per component.
func (v *topView) renderFleet(b *strings.Builder, hist *topHistory) {
	if len(v.endpoints) > 0 {
		tb := tabulate.NewTable("Endpoints", "endpoint", "component", "state", "age", "series")
		for _, e := range v.endpoints {
			state := "up"
			if e.fails > 0 || e.age < 0 {
				state = fmt.Sprintf("DOWN(%d)", int(e.fails))
			}
			ageCol := fmt.Sprintf("%.1fs", e.age)
			if e.age < 0 {
				ageCol = "never"
			}
			tb.Row(e.name, e.component, state, ageCol, fmt.Sprint(e.series))
		}
		b.WriteString(tb.Render())
	}
	if len(v.firing) > 0 {
		fmt.Fprintf(b, "\nFIRING: %s\n", strings.Join(v.firing, ", "))
	}
	if len(v.agg) == 0 {
		return
	}
	// Column per component, stable order.
	comps := map[string]bool{}
	for _, s := range v.agg {
		for c := range s.PerComponent {
			comps[c] = true
		}
	}
	order := make([]string, 0, len(comps))
	for c := range comps {
		order = append(order, c)
	}
	sort.Strings(order)
	headers := append([]string{"series", "total", "max"}, order...)
	if hist != nil {
		headers = append(headers, "trend")
	}
	cells := make([]any, 0, len(headers))
	st := tabulate.NewTable("Fleet aggregates", headers...)
	for _, s := range v.agg {
		if !strings.HasPrefix(s.Name, "lobster_") {
			continue
		}
		cells = cells[:0]
		cells = append(cells, s.Name, fmt.Sprintf("%.6g", s.Total), fmt.Sprintf("%.6g", s.Max))
		for _, c := range order {
			cells = append(cells, fmt.Sprintf("%.6g", s.PerComponent[c]))
		}
		if hist != nil {
			cells = append(cells, hist.spark(s.Name, allInstances))
		}
		st.Row(cells...)
	}
	b.WriteByte('\n')
	b.WriteString(st.Render())
}

// renderSegments turns the lobster_task_stage_seconds histograms into
// the live per-segment breakdown — the same accounting lobster-trace
// computes offline from span trees (the two reconcile by construction).
// A hub's page sums each stage over its endpoints. The stage label is
// telemetry.Stage's closed set, every name of which is a trace segment.
func renderSegments(series []health.Series) string {
	secs := make(map[string]float64)
	counts := make(map[string]float64)
	var total float64
	for _, s := range series {
		switch s.Name {
		case "lobster_task_stage_seconds_sum":
			secs[s.Label("stage")] += s.Value
			total += s.Value
		case "lobster_task_stage_seconds_count":
			counts[s.Label("stage")] += s.Value
		}
	}
	if total <= 0 {
		return ""
	}
	tb := tabulate.NewTable("Runtime breakdown (live, cf. paper Figure 8)",
		"Task Phase", "Time (s)", "Fraction (%)", "Samples")
	var labels []string
	var values []float64
	for _, seg := range trace.Segments {
		v, ok := secs[seg]
		if !ok {
			continue
		}
		tb.Row(seg, fmt.Sprintf("%.2f", v), fmt.Sprintf("%.1f", 100*v/total),
			fmt.Sprintf("%d", int64(counts[seg])))
		labels = append(labels, seg)
		values = append(values, v)
	}
	return tb.Render() + "\n" + tabulate.Bars(labels, values, 48)
}
