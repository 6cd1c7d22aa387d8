// Command bench-guard evaluates the rule tables in the BENCH_*.json
// files: it reruns every benchmark a rule names, compares the fresh
// numbers with the rule's bound and exits non-zero naming each rule
// that broke. Adding a guard is adding a row to a table; there is no
// per-file code here.
//
// Usage (from the module root, or via make bench-guard):
//
//	bench-guard                      # every BENCH_*.json in the module root
//	bench-guard BENCH_scale.json     # one table
//	bench-guard -update              # re-pin the "pinned" rules' samples
//	bench-guard -time-tolerance 0.05 # quiet hardware: tight wall-clock bound
//
// A file is {note, recorded, history, rules}. note/recorded/history are
// free-form documentation (history holds the "before" numbers of code
// that no longer exists; it is carried verbatim and never read). A rule
// names one benchmark (pkg, bench, benchtime), one metric — the unit
// string exactly as go test -bench prints it — and one bound:
//
//	abs     best fresh value against a fixed max and/or min
//	pinned  best fresh value against the best of the pinned samples,
//	        within the rule's tolerance (deterministic metrics) or
//	        -time-tolerance (wall clock, when the rule sets none)
//	ratio   best(bench) / best(over) from the same run against min/max
//
// "Best" is the minimum of the -count repetitions, or the maximum when
// the rule says "better":"higher": a shared machine is noisy in the bad
// direction only, so best-vs-best is the stable comparison.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

func main() {
	update := flag.Bool("update", false, "rewrite the samples of every pinned rule with this run's numbers")
	count := flag.Int("count", 3, "benchmark repetitions (best of N)")
	timeTol := flag.Float64("time-tolerance", 0.50, "allowed fractional regression of pinned rules without a tolerance of their own (wall clock); shared hosts jitter, tighten on quiet hardware")
	flag.Parse()
	paths := flag.Args()
	if len(paths) == 0 {
		paths, _ = filepath.Glob("BENCH_*.json")
	}
	if err := guard(paths, *update, *count, *timeTol, goTestBench, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench-guard:", err)
		os.Exit(1)
	}
}

// table is one BENCH_*.json file.
type table struct {
	Note     string          `json:"note"`
	Recorded string          `json:"recorded"`
	History  json.RawMessage `json:"history"`
	Rules    []*rule         `json:"rules"`

	path string
}

type rule struct {
	Pkg       string    `json:"pkg"`            // go test package, e.g. ./internal/wq/
	Bench     string    `json:"bench"`          // full name incl. sub-benchmark, no -cpu suffix
	Over      string    `json:"over,omitempty"` // ratio: the denominator benchmark
	Benchtime string    `json:"benchtime"`
	Metric    string    `json:"metric"`
	Better    string    `json:"better,omitempty"` // "higher" for throughput; default lower
	Bound     string    `json:"bound"`
	Min       *float64  `json:"min,omitempty"`
	Max       *float64  `json:"max,omitempty"`
	Tolerance *float64  `json:"tolerance,omitempty"`
	Samples   []float64 `json:"samples,omitempty"`
	Note      string    `json:"note,omitempty"` // what a failure means; printed with it
}

func (r *rule) validate() error {
	if r.Pkg == "" || r.Bench == "" || r.Benchtime == "" || r.Metric == "" {
		return fmt.Errorf("pkg, bench, benchtime and metric are all required")
	}
	if r.Better != "" && r.Better != "higher" {
		return fmt.Errorf("better is \"higher\" or absent (lower), not %q", r.Better)
	}
	limits := r.Min != nil || r.Max != nil
	switch r.Bound {
	case "abs":
		if !limits || r.Over != "" || r.Samples != nil || r.Tolerance != nil {
			return fmt.Errorf("an abs rule takes min and/or max and nothing else")
		}
	case "pinned":
		if len(r.Samples) == 0 || limits || r.Over != "" {
			return fmt.Errorf("a pinned rule takes samples (and optionally tolerance) and nothing else")
		}
	case "ratio":
		if r.Over == "" || !limits || r.Samples != nil || r.Tolerance != nil {
			return fmt.Errorf("a ratio rule takes over plus min and/or max and nothing else")
		}
	default:
		return fmt.Errorf("unknown bound %q (want abs, pinned or ratio)", r.Bound)
	}
	return nil
}

func (r *rule) String() string {
	name := r.Bench
	if r.Over != "" {
		name += " / " + r.Over
	}
	return fmt.Sprintf("%s %s %s", name, r.Metric, r.Bound)
}

func loadTable(path string) (*table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := &table{path: path}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(t.Rules) == 0 {
		return nil, fmt.Errorf("%s: no rules", path)
	}
	for i, r := range t.Rules {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("%s: rule %d (%s): %w", path, i, r, err)
		}
	}
	return t, nil
}

// encode lays the table out one rule per line, with history copied
// byte for byte, so -update changes nothing but the samples it re-pins.
func (t *table) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"note\": %s,\n  \"recorded\": %s,\n", compact(t.Note), compact(t.Recorded))
	if t.History != nil {
		fmt.Fprintf(&b, "  \"history\": %s,\n", t.History)
	}
	b.WriteString("  \"rules\": [\n")
	for i, r := range t.Rules {
		sep := ","
		if i == len(t.Rules)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %s%s\n", compact(r), sep)
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes()
}

func compact(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // notes say "pop->stamp" and "<5%"
	if err := enc.Encode(v); err != nil {
		panic(err) // strings and rules always encode
	}
	return bytes.TrimSpace(b.Bytes())
}

// samples maps benchmark name → unit → one value per repetition.
type samples map[string]map[string][]float64

var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads every "value unit" pair off every result line of
// go test -bench output (name, iteration count, then the pairs).
func parseBench(out string) samples {
	s := samples{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(f[0], "")
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			if s[name] == nil {
				s[name] = map[string][]float64{}
			}
			s[name][f[i+1]] = append(s[name][f[i+1]], v)
		}
	}
	return s
}

func (r *rule) best(xs []float64) float64 {
	if r.Better == "higher" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

func (r *rule) within(v float64) bool {
	return (r.Min == nil || v >= *r.Min) && (r.Max == nil || v <= *r.Max)
}

func (r *rule) limits() string {
	var parts []string
	if r.Min != nil {
		parts = append(parts, fmt.Sprintf("min %g", *r.Min))
	}
	if r.Max != nil {
		parts = append(parts, fmt.Sprintf("max %g", *r.Max))
	}
	return strings.Join(parts, ", ")
}

// check evaluates one rule against the fresh samples of its group.
func (r *rule) check(s samples, timeTol float64) (detail string, ok bool) {
	fresh := s[r.Bench][r.Metric]
	if len(fresh) == 0 {
		return fmt.Sprintf("no %s sample of %s in the benchmark output", r.Metric, r.Bench), false
	}
	got := r.best(fresh)
	switch r.Bound {
	case "abs":
		return fmt.Sprintf("best %g (%s)", got, r.limits()), r.within(got)
	case "ratio":
		over := s[r.Over][r.Metric]
		if len(over) == 0 {
			return fmt.Sprintf("no %s sample of %s in the benchmark output", r.Metric, r.Over), false
		}
		ratio := got / r.best(over)
		return fmt.Sprintf("same-run ratio %.3g (%s)", ratio, r.limits()), r.within(ratio)
	}
	pin, tol := r.best(r.Samples), timeTol
	if r.Tolerance != nil {
		tol = *r.Tolerance
	}
	ok = got <= pin*(1+tol)
	if r.Better == "higher" {
		ok = got >= pin*(1-tol)
	}
	return fmt.Sprintf("best %g vs pinned %g (%+.1f%%, tolerance %g%%)", got, pin, 100*(got/pin-1), 100*tol), ok
}

// run is one go test invocation: every benchmark the rules name in one
// package at one benchtime.
type run struct{ pkg, benchtime string }

func (r *rule) run() run { return run{r.Pkg, r.Benchtime} }

// runner executes one run and returns go test's output; tests fake it.
type runner func(pkg, pattern, benchtime string, count int) (string, error)

func goTestBench(pkg, pattern, benchtime string, count int) (string, error) {
	out, err := exec.Command("go", "test", pkg, "-run", "^$", "-bench", pattern, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count)).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go test %s: %w\n%s", pkg, err, out)
	}
	return string(out), nil
}

func guard(paths []string, update bool, count int, timeTol float64, bench runner, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json here; run from the module root or name the files")
	}
	var tables []*table
	var runs []run
	names := map[run][]string{} // top-level benchmark names, first-seen order
	for _, p := range paths {
		t, err := loadTable(p)
		if err != nil {
			return err
		}
		tables = append(tables, t)
		for _, r := range t.Rules {
			g := r.run()
			if names[g] == nil {
				runs = append(runs, g)
			}
			for _, b := range []string{r.Bench, r.Over} {
				top, _, _ := strings.Cut(b, "/")
				if b != "" && !slices.Contains(names[g], top) {
					names[g] = append(names[g], top)
				}
			}
		}
	}

	fresh := map[run]samples{}
	for _, g := range runs {
		pattern := "^(" + strings.Join(names[g], "|") + ")$"
		fmt.Fprintf(w, "running %s -bench '%s', %d×%s...\n", g.pkg, pattern, count, g.benchtime)
		out, err := bench(g.pkg, pattern, g.benchtime, count)
		if err != nil {
			return err
		}
		fresh[g] = parseBench(out)
	}

	var failures []string
	for _, t := range tables {
		for _, r := range t.Rules {
			s := fresh[r.run()]
			if got := s[r.Bench][r.Metric]; update && r.Bound == "pinned" && len(got) > 0 {
				r.Samples = got
				fmt.Fprintf(w, "pin   %s: %s: %v\n", t.path, r, got)
				continue
			}
			detail, ok := r.check(s, timeTol)
			if ok {
				fmt.Fprintf(w, "ok    %s: %s: %s\n", t.path, r, detail)
				continue
			}
			if r.Note != "" {
				detail += " — " + r.Note
			}
			fmt.Fprintf(w, "FAIL  %s: %s: %s\n", t.path, r, detail)
			failures = append(failures, fmt.Sprintf("%s: %s: %s", t.path, r, detail))
		}
		if update {
			if err := os.WriteFile(t.path, t.encode(), 0o644); err != nil {
				return err
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d rule(s) broken:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
