package tabulate

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Phases", "Task Phase", "Time (h)", "Fraction (%)")
	tb.Row("Task CPU Time", 171036.0, 53.4)
	tb.Row("Task I/O Time", 65356.0, 20.4)
	out := tb.Render()
	if !strings.Contains(out, "Phases") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "Task CPU Time") || !strings.Contains(out, "171036") {
		t.Errorf("content missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align: header and first row start the second column at the
	// same offset.
	hIdx := strings.Index(lines[1], "Time (h)")
	rIdx := strings.Index(lines[3], "171036")
	if hIdx != rIdx {
		t.Errorf("misaligned columns (%d vs %d):\n%s", hIdx, rIdx, out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "A")
	tb.Row("x")
	out := tb.Render()
	if strings.HasPrefix(out, "\n") {
		t.Error("empty title produced a blank line")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.14",
		171036:  "171036",
		1234.5:  "1234.5",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := map[float64]string{
		512:    "512 B",
		2048:   "2.00 KiB",
		1.5e9:  "1.40 GiB",
		3.2e13: "29.10 TiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestDuration(t *testing.T) {
	if Duration(30) != "30.0s" || Duration(90) != "1.5m" || Duration(7200) != "2.0h" {
		t.Errorf("durations: %s %s %s", Duration(30), Duration(90), Duration(7200))
	}
}

func TestBars(t *testing.T) {
	out := Bars([]string{"a", "bb"}, []float64{10, 5}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "##########") {
		t.Errorf("max bar not full width: %q", lines[0])
	}
	if !strings.Contains(lines[1], "#####") || strings.Contains(lines[1], "######") {
		t.Errorf("half bar wrong: %q", lines[1])
	}
}

func TestBarsZeroValues(t *testing.T) {
	out := Bars([]string{"x"}, []float64{0}, 10)
	if strings.Contains(out, "#") {
		t.Error("zero value produced a bar")
	}
}

func TestSpark(t *testing.T) {
	cases := []struct {
		in   []float64
		want string
	}{
		{nil, ""},
		{[]float64{5}, "▅"},         // flat → mid-height
		{[]float64{3, 3, 3}, "▅▅▅"}, // flat run
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7}, "▁▂▃▄▅▆▇█"}, // full ramp
		{[]float64{7, 0}, "█▁"},
		{[]float64{-1, 0, 1}, "▁▄█"}, // negatives scale too
	}
	for _, c := range cases {
		if got := Spark(c.in); got != c.want {
			t.Errorf("Spark(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
