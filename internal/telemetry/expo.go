package telemetry

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// This file is the observation plane: Prometheus text exposition (format
// 0.0.4) on /metrics, the one format every process is read through.

// Label is one name="value" pair of an exposition line.
type Label struct {
	Name  string
	Value string
}

// Expo accumulates a text exposition page. It is the one writer of the
// format: the registry's /metrics page goes through it, so a label value
// is escaped once, by one escaper, and every value is spelled by one
// formatter.
type Expo struct {
	b []byte
}

// Help writes a family's HELP comment.
func (e *Expo) Help(name, help string) {
	e.b = append(e.b, "# HELP "...)
	e.b = append(e.b, name...)
	e.b = append(e.b, ' ')
	e.b = append(e.b, escapeHelp(help)...)
	e.b = append(e.b, '\n')
}

// Type writes a family's TYPE comment.
func (e *Expo) Type(name, typ string) {
	e.b = append(e.b, "# TYPE "...)
	e.b = append(e.b, name...)
	e.b = append(e.b, ' ')
	e.b = append(e.b, typ...)
	e.b = append(e.b, '\n')
}

// Sample writes one series line: name{labels} value.
func (e *Expo) Sample(name string, labels []Label, v float64) {
	e.b = append(e.b, name...)
	if len(labels) > 0 {
		e.b = append(e.b, '{')
		for i, l := range labels {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, l.Name...)
			e.b = append(e.b, `="`...)
			e.b = append(e.b, escapeLabel(l.Value)...)
			e.b = append(e.b, '"')
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ' ')
	e.b = append(e.b, formatFloat(v)...)
	e.b = append(e.b, '\n')
}

// WriteTo writes the page accumulated so far.
func (e *Expo) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.b)
	return int64(n), err
}

// WritePrometheus writes every series in text exposition format, families
// sorted by name, series in creation order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var e Expo
	for _, f := range r.sortedFamilies() {
		f.expo(&e)
	}
	_, err := e.WriteTo(w)
	return err
}

// expo renders one family.
func (f *family) expo(e *Expo) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e.Help(f.name, f.help)
	e.Type(f.name, f.kind.String())
	if f.kind == kindGaugeFunc {
		if f.fn != nil {
			e.Sample(f.name, nil, f.fn())
		}
		return
	}
	labels := make([]Label, len(f.labels), len(f.labels)+1)
	for _, key := range f.order {
		values := f.values[key]
		for i, n := range f.labels {
			labels[i] = Label{Name: n}
			if i < len(values) {
				labels[i].Value = values[i]
			}
		}
		switch ins := f.series[key].(type) {
		case *Counter:
			e.Sample(f.name, labels, float64(ins.Value()))
		case *Gauge:
			e.Sample(f.name, labels, ins.Value())
		case *Histogram:
			cum := int64(0)
			for i, ub := range ins.upper {
				cum += ins.counts[i].Load()
				e.Sample(f.name+"_bucket", append(labels, Label{"le", formatFloat(ub)}), float64(cum))
			}
			cum += ins.counts[len(ins.upper)].Load()
			e.Sample(f.name+"_bucket", append(labels, Label{"le", "+Inf"}), float64(cum))
			e.Sample(f.name+"_sum", labels, ins.Sum())
			e.Sample(f.name+"_count", labels, float64(ins.Count()))
		}
	}
}

// formatFloat is the one value formatter. An integral value below 1e15
// is written as an integer, so a counter reads 107303801934, not
// 1.07303801934e+11; anything else takes Go's shortest form, which
// spells the infinities and NaN the way the format does.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// escapeLabel is the one label escaper: backslash, double quote and
// newline, the three escapes the format defines. Every other byte, a tab
// or a non-ASCII rune included, is written as it is.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\"", "\\\"")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// Mux returns a mux serving the registry's page as Prometheus text
// exposition at GET /metrics.
func (r *Registry) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	return mux
}
