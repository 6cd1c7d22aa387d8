package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// testdata/bench_output.txt is three real `go test -bench -cpu 8` runs
// from this repository, edited in three places: the AppendFleet100 line lost its
// -8 (the GOMAXPROCS=1 form), the LoopbackDispatchBatched numbers are
// in e-notation, and a "--- BENCH" log block and a result-less name
// line were spliced in.
func fixture(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("testdata/bench_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestParseBench(t *testing.T) {
	s := parseBench(fixture(t))
	for _, c := range []struct {
		bench, unit string
		want        []float64
	}{
		{"BenchmarkMatchLoop", "ns/op", []float64{25116, 24925}}, // -8 stripped, one value per repetition
		{"BenchmarkMatchLoop", "allocs/op", []float64{0, 0}},
		{"BenchmarkScaleSim", "task-B", []float64{13.82, 55.94}}, // custom metrics sit between ns/op and B/op
		{"BenchmarkScaleSim", "tasks/s", []float64{1706844, 1619163}},
		{"BenchmarkScaleSim", "B/op", []float64{40140180, 38127116}},
		{"BenchmarkLoopbackDispatchBatched", "ns/op", []float64{2.7e6}}, // e+06 notation
		{"BenchmarkLoopbackDispatchBatched", "tasks/s", []float64{38028}},
		{"BenchmarkLoopbackDispatchBatched", "allocs/op", nil}, // that line has no -benchmem pairs
		{"BenchmarkDataplaneGet/1MiB", "B/op", []float64{135008}},
		{"BenchmarkDataplaneGet/256MiB", "MB/s", []float64{2042.45}},
		{"BenchmarkDataplaneGet", "ns/op", nil},                        // sub-benchmarks keep their path
		{"BenchmarkAppendFleet100", "bytes/sample", []float64{0.8152}}, // no -cpu suffix on the line
		{"BenchmarkNoResultYet", "ns/op", nil},
	} {
		if got := s[c.bench][c.unit]; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s %s = %v, want %v", c.bench, c.unit, got, c.want)
		}
	}
	// goos/pkg/PASS/ok lines, the log block and the bare name line add nothing.
	if len(s) != 8 {
		t.Errorf("parsed %d benchmarks, want the fixture's 8: %v", len(s), s)
	}
}

// writeTable puts a table around rule rows, in the layout encode writes.
func writeTable(t *testing.T, history string, rows ...string) string {
	t.Helper()
	text := "{\n  \"note\": \"test table\",\n  \"recorded\": \"2026-09-27\",\n"
	if history != "" {
		text += "  \"history\": " + history + ",\n"
	}
	text += "  \"rules\": [\n    " + strings.Join(rows, ",\n    ") + "\n  ]\n}\n"
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// row spells a rule against the fixture; rest is the bound's own fields.
func row(pkg, bench, metric, rest string) string {
	return `{"pkg":"` + pkg + `","bench":"` + bench + `","benchtime":"1x","metric":"` + metric + `",` + rest + `}`
}

func TestBoundKinds(t *testing.T) {
	out := fixture(t)
	fake := func(pkg, pattern, benchtime string, count int) (string, error) { return out, nil }
	for _, c := range []struct {
		name, row string
		broken    string // "" = must pass; else what the error must say besides the rule's name
	}{
		{"abs max holds", row("./wq/", "BenchmarkScaleSim", "task-B", `"bound":"abs","max":320`), ""},
		{"abs max at the limit", row("./wq/", "BenchmarkMatchLoop", "allocs/op", `"bound":"abs","max":0`), ""},
		{"abs max broken", row("./wq/", "BenchmarkScaleSim", "task-B", `"bound":"abs","max":10`), "best 13.82"},
		{"abs min takes the highest repetition", row("./wq/", "BenchmarkScaleSim", "tasks/s", `"better":"higher","bound":"abs","min":1700000`), ""},
		{"abs min broken", row("./wq/", "BenchmarkScaleSim", "tasks/s", `"better":"higher","bound":"abs","min":1800000`), "best 1.706844e+06"},
		{"abs missing metric", row("./wq/", "BenchmarkMatchLoop", "widgets/op", `"bound":"abs","max":1`), "no widgets/op sample"},

		{"pinned wall clock within -time-tolerance", row("./wq/", "BenchmarkMatchLoop", "ns/op", `"bound":"pinned","samples":[30000,20000]`), ""},
		{"pinned wall clock broken", row("./wq/", "BenchmarkMatchLoop", "ns/op", `"bound":"pinned","samples":[30000,10000]`), "best 24925 vs pinned 10000"},
		{"pinned own tolerance holds", row("./chirp/", "BenchmarkDataplaneGet/1MiB", "B/op", `"bound":"pinned","tolerance":0.05,"samples":[130000]`), ""},
		{"pinned own tolerance beats the flag", row("./chirp/", "BenchmarkDataplaneGet/1MiB", "B/op", `"bound":"pinned","tolerance":0.05,"samples":[120000]`), "tolerance 5%"},
		{"pinned higher-is-better holds", row("./wq/", "BenchmarkMatchLoop", "tasks/s", `"better":"higher","bound":"pinned","samples":[2717210,5000000]`), ""},
		{"pinned higher-is-better broken", row("./wq/", "BenchmarkMatchLoop", "tasks/s", `"better":"higher","bound":"pinned","samples":[2717210,6000000]`), "best 2.567691e+06 vs pinned 6e+06"},
		{"pinned missing benchmark", row("./wq/", "BenchmarkNoResultYet", "ns/op", `"bound":"pinned","samples":[1]`), "no ns/op sample of BenchmarkNoResultYet"},

		{"ratio min holds", row("./chirp/", "BenchmarkDataplaneGet/256MiB", "ns/op", `"over":"BenchmarkDataplaneGet/1MiB","bound":"ratio","min":100`), ""},
		{"ratio min broken", row("./chirp/", "BenchmarkDataplaneGet/256MiB", "ns/op", `"over":"BenchmarkDataplaneGet/1MiB","bound":"ratio","min":110`), "same-run ratio 105"},
		{"ratio max broken", row("./chirp/", "BenchmarkDataplaneGet/16MiB", "ns/op", `"over":"BenchmarkDataplaneGet/64MiB","bound":"ratio","max":0.25`), "same-run ratio 0.281"},
		{"ratio missing denominator", row("./wq/", "BenchmarkMatchLoop", "ns/op", `"over":"BenchmarkNoResultYet","bound":"ratio","max":1`), "no ns/op sample of BenchmarkNoResultYet"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := writeTable(t, "", c.row)
			var log bytes.Buffer
			err := guard([]string{path}, false, 3, 0.5, fake, &log)
			if c.broken == "" {
				if err != nil || !strings.Contains(log.String(), "\nok ") {
					t.Fatalf("want a pass, got err %v\n%s", err, &log)
				}
				return
			}
			tab, _ := loadTable(path)
			if err == nil || !strings.Contains(err.Error(), tab.Rules[0].String()) || !strings.Contains(err.Error(), c.broken) {
				t.Fatalf("want an error naming %q and saying %q, got %v", tab.Rules[0], c.broken, err)
			}
		})
	}
}

// One go test per (pkg, benchtime), every failure collected, one line per rule.
func TestGuardGroupsRunsAndCollectsFailures(t *testing.T) {
	out := fixture(t)
	var calls []string
	fake := func(pkg, pattern, benchtime string, count int) (string, error) {
		calls = append(calls, pkg+" "+benchtime+" "+pattern)
		return out, nil
	}
	a := writeTable(t, "",
		row("./chirp/", "BenchmarkDataplaneGet/1MiB", "ns/op", `"bound":"abs","max":1`),
		row("./chirp/", "BenchmarkDataplaneGet/16MiB", "ns/op", `"over":"BenchmarkDataplaneGet/64MiB","bound":"ratio","max":1`),
		row("./wq/", "BenchmarkMatchLoop", "allocs/op", `"bound":"abs","max":0,"note":"hot path allocates"`))
	b := writeTable(t, "",
		row("./wq/", "BenchmarkScaleSim", "task-B", `"bound":"abs","max":1,"note":"records grew"`),
		strings.Replace(row("./wq/", "BenchmarkMatchLoop", "ns/op", `"bound":"abs","max":1e9`), `"1x"`, `"2s"`, 1))
	var log bytes.Buffer
	err := guard([]string{a, b}, false, 3, 0.5, fake, &log)
	want := []string{
		"./chirp/ 1x ^(BenchmarkDataplaneGet)$",
		"./wq/ 1x ^(BenchmarkMatchLoop|BenchmarkScaleSim)$",
		"./wq/ 2s ^(BenchmarkMatchLoop)$",
	}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("runs = %q, want %q", calls, want)
	}
	if err == nil || !strings.Contains(err.Error(), "2 rule(s) broken") ||
		!strings.Contains(err.Error(), "BenchmarkDataplaneGet/1MiB ns/op abs") ||
		!strings.Contains(err.Error(), "BenchmarkScaleSim task-B abs") || !strings.Contains(err.Error(), "records grew") {
		t.Errorf("error should name both broken rules and carry the note: %v", err)
	}
	if ok, fail := strings.Count(log.String(), "\nok "), strings.Count(log.String(), "\nFAIL "); ok != 3 || fail != 2 {
		t.Errorf("want one line per rule (3 ok, 2 FAIL), got %d/%d:\n%s", ok, fail, &log)
	}
}

func TestSchemaValidation(t *testing.T) {
	for _, c := range []struct{ name, row, want string }{
		{"unknown bound", row(".", "BenchmarkX", "ns/op", `"bound":"min-of-n","max":1`), `unknown bound "min-of-n"`},
		{"pinned without samples", row(".", "BenchmarkX", "ns/op", `"bound":"pinned"`), "pinned rule takes samples"},
		{"pinned with a limit", row(".", "BenchmarkX", "ns/op", `"bound":"pinned","samples":[1],"max":2`), "pinned rule takes samples"},
		{"ratio without over", row(".", "BenchmarkX", "ns/op", `"bound":"ratio","min":2`), "ratio rule takes over"},
		{"ratio without a limit", row(".", "BenchmarkX", "ns/op", `"over":"BenchmarkY","bound":"ratio"`), "ratio rule takes over"},
		{"abs without a limit", row(".", "BenchmarkX", "ns/op", `"bound":"abs"`), "abs rule takes min and/or max"},
		{"misspelt field", row(".", "BenchmarkX", "ns/op", `"bound":"abs","maximum":1`), `unknown field "maximum"`},
		{"missing metric", `{"pkg":".","bench":"BenchmarkX","benchtime":"1x","bound":"abs","max":1}`, "are all required"},
		{"bad direction", row(".", "BenchmarkX", "ns/op", `"better":"bigger","bound":"abs","max":1`), "better is"},
		{"lower is the default, not a value", row(".", "BenchmarkX", "ns/op", `"better":"lower","bound":"abs","max":1`), "better is"},
	} {
		if _, err := loadTable(writeTable(t, "", c.row)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error saying %q", c.name, err, c.want)
		}
	}
	if err := guard(nil, false, 3, 0.5, nil, io.Discard); err == nil {
		t.Error("no tables to evaluate must be an error, not a silent pass")
	}
}

func TestUpdateRewritesOnlyPinnedSamples(t *testing.T) {
	// Odd spacing, key order and escapes in history must survive untouched.
	history := "{\"before\":   {\"ns_op\": [1, 2,\n      3], \"why\": \"pop-\\u003estamp\"},\n\t\"samples\": [9, 9]}"
	path := writeTable(t, history,
		row("./wq/", "BenchmarkMatchLoop", "ns/op", `"bound":"pinned","samples":[1,2,3]`),
		row("./wq/", "BenchmarkMatchLoop", "allocs/op", `"bound":"abs","max":0`),
		row("./wq/", "BenchmarkScaleSim", "tasks/s", `"better":"higher","bound":"pinned","samples":[4.5]`),
		row("./wq/", "BenchmarkNoResultYet", "ns/op", `"bound":"pinned","samples":[7]`))
	before, _ := os.ReadFile(path)
	out := fixture(t)
	fake := func(pkg, pattern, benchtime string, count int) (string, error) { return out, nil }
	err := guard([]string{path}, true, 3, 0.5, fake, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkNoResultYet ns/op pinned") {
		t.Errorf("a pinned rule with nothing to re-pin must still fail: %v", err)
	}
	want := strings.NewReplacer(
		`"samples":[1,2,3]`, `"samples":[25116,24925]`,
		`"samples":[4.5]`, `"samples":[1706844,1619163]`,
	).Replace(string(before))
	after, _ := os.ReadFile(path)
	if string(after) != want {
		t.Errorf("-update changed more (or less) than the pinned samples:\n got %s\nwant %s", after, want)
	}
	if !bytes.Contains(after, []byte(history)) {
		t.Error("history was not preserved byte for byte")
	}
}

// The five real tables: valid under the one schema, laid out the way
// -update writes them (so a re-pin diffs only samples), and every rule
// names a benchmark its package declares. Runs no benchmark.
func TestRootTables(t *testing.T) {
	paths, _ := filepath.Glob("../../BENCH_*.json")
	if len(paths) != 5 {
		t.Fatalf("found %d BENCH_*.json in the module root, want 5: %v", len(paths), paths)
	}
	declared := map[string][]byte{} // pkg → its *_test.go sources
	for _, path := range paths {
		tab, err := loadTable(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, tab.encode()) {
			t.Errorf("%s is not in the layout -update writes; reformat it (one compact rule per line, fields in struct order)", path)
		}
		for _, r := range tab.Rules {
			if declared[r.Pkg] == nil {
				tests, _ := filepath.Glob(filepath.Join("../..", r.Pkg, "*_test.go"))
				for _, f := range tests {
					b, _ := os.ReadFile(f)
					declared[r.Pkg] = append(declared[r.Pkg], b...)
				}
			}
			for _, b := range []string{r.Bench, r.Over} {
				top, _, _ := strings.Cut(b, "/")
				if b != "" && !regexp.MustCompile(`(?m)^func `+top+`\(b \*testing\.B\)`).Match(declared[r.Pkg]) {
					t.Errorf("%s: %s: %s declares no %s", path, r, r.Pkg, top)
				}
			}
		}
	}
}
