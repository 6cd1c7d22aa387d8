// Package tabulate renders the tables and timeline series the benchmark
// harness and command-line tools print: fixed-width ASCII tables, horizontal
// bar charts for per-bin counts, and human-readable quantities.
package tabulate

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends one row; values are formatted with %v.
func (t *Table) Row(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = FormatFloat(x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float compactly: integers plainly, others with
// enough precision to be useful.
func FormatFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e12 {
		return fmt.Sprintf("%.0f", x)
	}
	if math.Abs(x) >= 1000 {
		return fmt.Sprintf("%.1f", x)
	}
	return fmt.Sprintf("%.3g", x)
}

// Render returns the formatted table.
func (t *Table) Render() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		var sep []string
		for i := 0; i < cols; i++ {
			sep = append(sep, strings.Repeat("-", widths[i]))
		}
		writeRow(sep)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Bytes renders a byte quantity with binary units.
func Bytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB"}
	i := 0
	for math.Abs(b) >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f %s", b, units[i])
	}
	return fmt.Sprintf("%.2f %s", b, units[i])
}

// Duration renders seconds as h/m/s.
func Duration(seconds float64) string {
	switch {
	case math.Abs(seconds) >= 3600:
		return fmt.Sprintf("%.1fh", seconds/3600)
	case math.Abs(seconds) >= 60:
		return fmt.Sprintf("%.1fm", seconds/60)
	default:
		return fmt.Sprintf("%.1fs", seconds)
	}
}

// Bars renders one horizontal bar per (label, value) pair, scaled to width.
func Bars(labels []string, values []float64, width int) string {
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&b, "%-*s |%-*s| %s\n", maxL, labels[i], width, strings.Repeat("#", n), FormatFloat(v))
	}
	return b.String()
}

// sparkRunes are the eight block heights Spark maps values onto.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Spark renders a numeric series as a one-line unicode sparkline, each
// value scaled between the series' min and max. A flat series renders
// at mid-height; an empty one renders empty.
func Spark(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := len(sparkRunes) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}
