package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// This file is the live status plane: Prometheus text exposition
// (format 0.0.4) for /metrics, and a JSON snapshot for /status that the
// `lobster top` one-shot printer consumes.

// WritePrometheus writes every series in text exposition format, families
// sorted by name, series in creation order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		f.expo(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// expo renders one family.
func (f *family) expo(b *strings.Builder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.kind == kindGaugeFunc {
		if f.fn != nil {
			fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.fn()))
		}
		return
	}
	for _, key := range f.order {
		labels := labelPairs(f.labels, f.values[key])
		switch ins := f.series[key].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labels, ins.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(ins.Value()))
		case *Histogram:
			cum := int64(0)
			for i, ub := range ins.upper {
				cum += ins.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelPairsExtra(f.labels, f.values[key], "le", formatFloat(ub)), cum)
			}
			cum += ins.counts[len(ins.upper)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelPairsExtra(f.labels, f.values[key], "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, formatFloat(ins.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, ins.Count())
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\"", "\\\"")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// labelPairs renders {k="v",...} or "" with no labels.
func labelPairs(names, values []string) string {
	return labelPairsExtra(names, values, "", "")
}

func labelPairsExtra(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(v))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// --- JSON snapshot (/status and `lobster top`) ---

// SeriesPoint is one series in a status snapshot. Histograms report their
// count, sum, and mean rather than buckets.
type SeriesPoint struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	Count  int64             `json:"count,omitempty"`
	Mean   float64           `json:"mean,omitempty"`
}

// Status is the full /status document. Time is on the registry clock
// (simulated seconds under the simulator); UptimeSec is always wall
// time since the registry was created, so `lobster -top` can show how
// long the process has been up on either plane.
type Status struct {
	Time      float64           `json:"time"`
	UptimeSec float64           `json:"uptime_sec"`
	Go        string            `json:"go,omitempty"`
	Info      map[string]string `json:"info,omitempty"`
	Series    []SeriesPoint     `json:"series"`
}

// Snapshot captures every series at one instant.
func (r *Registry) Snapshot() Status {
	st := Status{Time: r.Now()}
	if r == nil {
		return st
	}
	r.mu.Lock()
	st.UptimeSec = time.Since(r.epoch).Seconds()
	r.mu.Unlock()
	st.Go = runtime.Version()
	st.Info = r.Info()
	for _, f := range r.sortedFamilies() {
		f.mu.Lock()
		if f.kind == kindGaugeFunc {
			// Evaluate the callback outside the lock: fn may snapshot a
			// component that itself exposes gauges.
			fn := f.fn
			f.mu.Unlock()
			if fn != nil {
				st.Series = append(st.Series, SeriesPoint{Name: f.name, Type: "gauge", Value: fn()})
			}
			continue
		}
		for _, key := range f.order {
			p := SeriesPoint{Name: f.name, Type: f.kind.String()}
			if len(f.labels) > 0 {
				p.Labels = make(map[string]string, len(f.labels))
				vals := f.values[key]
				for i, n := range f.labels {
					if i < len(vals) {
						p.Labels[n] = vals[i]
					}
				}
			}
			switch ins := f.series[key].(type) {
			case *Counter:
				p.Value = float64(ins.Value())
			case *Gauge:
				p.Value = ins.Value()
			case *Histogram:
				p.Count = ins.Count()
				p.Value = ins.Sum()
				if p.Count > 0 {
					p.Mean = p.Value / float64(p.Count)
				}
			}
			st.Series = append(st.Series, p)
		}
		f.mu.Unlock()
	}
	return st
}

// MetricsHandler serves Prometheus text exposition.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// StatusHandler serves the JSON snapshot.
func (r *Registry) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
}

// Mux returns a mux serving GET /metrics and GET /status.
func (r *Registry) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.MetricsHandler())
	mux.Handle("/status", r.StatusHandler())
	return mux
}
