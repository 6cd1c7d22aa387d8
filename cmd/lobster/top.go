package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"lobster/internal/tabulate"
	"lobster/internal/telemetry"
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

// top fetches /status from a live lobster (started with -http) and
// prints a dashboard: build/uptime/sampling header, the per-segment
// runtime breakdown derived from the stage histograms (the live view of
// the Figure 8 accounting), and every telemetry series. With watch it
// redraws every interval until interrupted, htop-style; a failed scrape
// keeps the last good data on screen under an explicit error banner with
// the data's age, rather than silently showing stale numbers or dying.
// With fleet it reads a lobster-fleet hub's /fleet endpoint instead and
// renders the merged multi-endpoint view.
func top(baseURL string, watch, fleet bool, interval time.Duration) error {
	client := &http.Client{Timeout: 5 * time.Second}
	if fleet {
		return topFleet(client, baseURL, watch, interval)
	}
	url := strings.TrimRight(baseURL, "/") + "/status"
	var last *telemetry.Status
	var lastOK time.Time
	var hist *topHistory
	if watch {
		hist = newTopHistory()
	}
	for {
		st, err := fetchStatus(client, url)
		if err == nil {
			last, lastOK = st, time.Now()
			if hist != nil {
				hist.seq++
				for _, p := range st.Series {
					v := p.Value
					if p.Type == "histogram" {
						v = p.Mean
					}
					hist.add(p.Name, p.Labels, v)
				}
			}
		}
		if !watch {
			if err != nil {
				return err
			}
			fmt.Print(renderStatus(last, 0, nil, nil))
			return nil
		}
		// Home the cursor and clear below rather than clearing the
		// whole screen: no flicker between refreshes.
		fmt.Print("\033[H\033[J")
		if last == nil {
			fmt.Printf("lobster top: no successful scrape yet: %v\n", err)
		} else {
			fmt.Print(renderStatus(last, time.Since(lastOK), err, hist))
		}
		time.Sleep(interval)
	}
}

func fetchStatus(client *http.Client, url string) (*telemetry.Status, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var st telemetry.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return &st, nil
}

// renderStatus renders one status page. age is how long ago the data was
// scraped (0 = fresh this cycle); scrapeErr, when non-nil, is the error
// that kept this cycle from refreshing it; hist, when non-nil (watch
// mode), adds a per-series sparkline over the recent refreshes.
func renderStatus(st *telemetry.Status, age time.Duration, scrapeErr error, hist *topHistory) string {
	var b strings.Builder
	if scrapeErr != nil {
		fmt.Fprintf(&b, "!! SCRAPE FAILED: %v\n!! showing data %.1fs old\n", scrapeErr, age.Seconds())
	}
	fmt.Fprintf(&b, "lobster status at t=%.1fs  up %s", st.Time, tabulate.Duration(st.UptimeSec))
	if st.Go != "" {
		fmt.Fprintf(&b, "  %s", st.Go)
	}
	if len(st.Info) > 0 {
		keys := make([]string, 0, len(st.Info))
		for k := range st.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s=%s", k, st.Info[k])
		}
	}
	fmt.Fprintf(&b, "  (%d series)\n", len(st.Series))

	if tb := renderSegments(st); tb != "" {
		b.WriteString(tb)
		b.WriteByte('\n')
	}

	headers := []string{"series", "type", "value"}
	if hist != nil {
		headers = append(headers, "trend")
	}
	tb := tabulate.NewTable("Telemetry", headers...)
	for _, p := range st.Series {
		name := seriesName(p.Name, p.Labels)
		var val string
		if p.Type == "histogram" {
			val = fmt.Sprintf("n=%d mean=%.4g", p.Count, p.Mean)
		} else {
			val = fmt.Sprintf("%g", p.Value)
		}
		if hist != nil {
			tb.Row(name, p.Type, val, hist.spark(p.Name, p.Labels))
		} else {
			tb.Row(name, p.Type, val)
		}
	}
	b.WriteString(tb.Render())
	b.WriteByte('\n')
	return b.String()
}

// fleetView mirrors the JSON document lobster-fleet serves on /fleet.
type fleetView struct {
	Time      float64 `json:"t"`
	Ticks     int64   `json:"ticks"`
	Endpoints []struct {
		Name      string  `json:"name"`
		Component string  `json:"component"`
		Up        bool    `json:"up"`
		Err       string  `json:"err"`
		AgeSec    float64 `json:"age_sec"`
		Series    int     `json:"series"`
		Fails     int     `json:"fails"`
	} `json:"endpoints"`
	Firing []string `json:"firing"`
	Alerts []struct {
		Time     float64 `json:"t"`
		Rule     string  `json:"rule"`
		Severity string  `json:"severity"`
		State    string  `json:"state"`
		Value    float64 `json:"value"`
	} `json:"alerts"`
	Series []struct {
		Name         string
		Total        float64
		Max          float64
		N            int
		PerComponent map[string]float64
	} `json:"series"`
}

// topFleet polls a lobster-fleet hub's /fleet endpoint and renders the
// merged cluster view: per-endpoint scrape health with an age column,
// firing rules, the recent alert tail, and the fleet aggregates broken
// down per component.
func topFleet(client *http.Client, baseURL string, watch bool, interval time.Duration) error {
	url := strings.TrimRight(baseURL, "/") + "/fleet"
	var last *fleetView
	var lastOK time.Time
	var hist *topHistory
	if watch {
		hist = newTopHistory()
	}
	for {
		v, err := fetchFleet(client, url)
		if err == nil {
			last, lastOK = v, time.Now()
			if hist != nil {
				hist.seq++
				for _, s := range v.Series {
					hist.add(s.Name, nil, s.Total)
				}
			}
		}
		if !watch {
			if err != nil {
				return err
			}
			fmt.Print(renderFleet(last, 0, nil, nil))
			return nil
		}
		fmt.Print("\033[H\033[J")
		if last == nil {
			fmt.Printf("lobster top: no successful hub scrape yet: %v\n", err)
		} else {
			fmt.Print(renderFleet(last, time.Since(lastOK), err, hist))
		}
		time.Sleep(interval)
	}
}

func fetchFleet(client *http.Client, url string) (*fleetView, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var v fleetView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return &v, nil
}

func renderFleet(v *fleetView, age time.Duration, scrapeErr error, hist *topHistory) string {
	var b strings.Builder
	if scrapeErr != nil {
		fmt.Fprintf(&b, "!! HUB SCRAPE FAILED: %v\n!! showing data %.1fs old\n", scrapeErr, age.Seconds())
	}
	fmt.Fprintf(&b, "fleet at t=%.1fs  tick %d  %d endpoints\n", v.Time, v.Ticks, len(v.Endpoints))

	tb := tabulate.NewTable("Endpoints", "endpoint", "component", "state", "age", "series", "error")
	for _, e := range v.Endpoints {
		state := "up"
		if !e.Up {
			state = fmt.Sprintf("DOWN(%d)", e.Fails)
		}
		ageCol := fmt.Sprintf("%.1fs", e.AgeSec)
		if e.AgeSec < 0 {
			ageCol = "never"
		}
		tb.Row(e.Name, e.Component, state, ageCol, fmt.Sprint(e.Series), e.Err)
	}
	b.WriteString(tb.Render())

	if len(v.Firing) > 0 {
		fmt.Fprintf(&b, "\nFIRING: %s\n", strings.Join(v.Firing, ", "))
	}
	if len(v.Alerts) > 0 {
		at := tabulate.NewTable("Recent alerts", "t", "rule", "severity", "state", "value")
		for _, a := range v.Alerts {
			at.Row(fmt.Sprintf("%.1f", a.Time), a.Rule, a.Severity, a.State, fmt.Sprintf("%.4g", a.Value))
		}
		b.WriteByte('\n')
		b.WriteString(at.Render())
	}
	if len(v.Series) > 0 {
		// Column per component, stable order.
		comps := map[string]bool{}
		for _, s := range v.Series {
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
		for _, s := range v.Series {
			if !strings.HasPrefix(s.Name, "lobster_") {
				continue
			}
			cells = cells[:0]
			cells = append(cells, s.Name, fmt.Sprintf("%.6g", s.Total), fmt.Sprintf("%.6g", s.Max))
			for _, c := range order {
				cells = append(cells, fmt.Sprintf("%.6g", s.PerComponent[c]))
			}
			if hist != nil {
				cells = append(cells, hist.spark(s.Name, nil))
			}
			st.Row(cells...)
		}
		b.WriteByte('\n')
		b.WriteString(st.Render())
	}
	return b.String()
}

// renderSegments turns the lobster_task_stage_seconds histograms into
// the live per-segment breakdown — the same accounting lobster-trace
// computes offline from span trees (the two reconcile by construction).
func renderSegments(st *telemetry.Status) string {
	secs := make(map[string]float64)
	counts := make(map[string]int64)
	var total float64
	for _, p := range st.Series {
		if p.Name != "lobster_task_stage_seconds" {
			continue
		}
		stage := p.Labels["stage"]
		secs[stage] += p.Value // histogram Value is the sum
		counts[stage] += p.Count
		total += p.Value
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
			fmt.Sprintf("%d", counts[seg]))
		labels = append(labels, seg)
		values = append(values, v)
		delete(secs, seg)
	}
	// Stages outside the canonical segment list still show up.
	rest := make([]string, 0, len(secs))
	for s := range secs {
		rest = append(rest, s)
	}
	sort.Strings(rest)
	for _, s := range rest {
		tb.Row(s, fmt.Sprintf("%.2f", secs[s]), fmt.Sprintf("%.1f", 100*secs[s]/total),
			fmt.Sprintf("%d", counts[s]))
		labels = append(labels, s)
		values = append(values, secs[s])
	}
	return tb.Render() + "\n" + tabulate.Bars(labels, values, 48)
}
