package main

import (
	"fmt"
	"io"
	"net/http"
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

// topClient bounds one read of a page, so a hung process cannot hang
// the dashboard.
var topClient = &http.Client{Timeout: 5 * time.Second}

// scrape reads one /metrics page under baseURL.
func scrape(baseURL string) ([]health.Series, error) {
	url := strings.TrimRight(baseURL, "/") + "/metrics"
	resp, err := topClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	page, err := health.ParseMetrics(resp.Body)
	if err != nil {
		return nil, err
	}
	return page.Series(), nil
}

// top scrapes baseURL/metrics — a lobster started with -http or a chirpd
// with -metrics — and prints a dashboard to w: the per-segment runtime
// breakdown from the stage histograms (the live view of the Figure 8
// accounting) and one table of the page's series. With watch it redraws
// every interval until interrupted, htop-style; a failed scrape keeps
// the last good data on screen under an explicit error banner with the
// data's age, rather than silently showing stale numbers or dying.
func top(w io.Writer, baseURL string, watch bool, interval time.Duration) error {
	var last *topView
	var lastOK time.Time
	var hist *topHistory
	if watch {
		hist = newTopHistory()
	}
	for {
		series, err := scrape(baseURL)
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

// topView is one scraped page, digested for the dashboard.
type topView struct {
	samples  int      // lines on the page
	rows     []topRow // one per series, one per histogram
	segments string   // the rendered runtime breakdown; "" with no stage time
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

func newTopView(series []health.Series) *topView {
	v := &topView{samples: len(series), segments: renderSegments(series)}
	hists := make(map[string]int) // histogram row index by name{labels}
	for _, s := range series {
		switch {
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
	fmt.Fprintf(&b, "lobster metrics: %d samples\n", v.samples)
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
	return b.String()
}

// renderSegments turns the lobster_task_stage_seconds histograms into
// the live per-segment breakdown — the same accounting lobster-trace
// computes offline from span trees (the two reconcile by construction).
// The stage label is telemetry.Stage's closed set, every name of which is
// a trace segment.
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
