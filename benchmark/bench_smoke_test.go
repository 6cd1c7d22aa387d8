package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// smokeDiv shrinks every workload and probe to about 1/50 of its size: the
// same code paths in a few seconds, race detector included.
const smokeDiv = 50

// TestBenchmarkJSON pins BENCHMARK.json to the tables in metrics.go and
// workload.go: same names, units, directions and bounds, nothing else.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if want := (metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}); file.EndToEnd[0] != want {
		t.Errorf("first end-to-end metric is %+v, want %+v", file.EndToEnd[0], want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the table (or the reasons differ)", i, w.Name, workloads[i].Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a reason over 200 characters", w.Name)
		}
	}
	for _, pair := range []struct {
		what        string
		file, table []metricDef
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if !reflect.DeepEqual(pair.file, pair.table) {
			t.Errorf("%s in BENCHMARK.json differs from the table in metrics.go", pair.what)
		}
		for _, d := range pair.table {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %+v breaks the naming rules", pair.what, d)
			}
			if bounded := pair.what == "end_to_end"; bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s: bound %v; end-to-end metrics carry one in (0, 0.25], per-layer metrics none", d.Name, d.Bound)
			}
		}
	}
}

// checkResult asserts that a run emitted every metric of its table, finite
// and with its unit, and that nothing failed.
func checkResult(t *testing.T, res *result, table []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", res.Workload, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(table) {
		t.Errorf("%s: %d metrics emitted, table has %d", res.Workload, len(res.Metrics), len(table))
	}
	for _, d := range table {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, d.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
			t.Errorf("%s: metric %s = %v %q, want a finite number in %q", res.Workload, d.Name, v.Value, v.Unit, d.Unit)
		}
	}
}

// TestSmoke runs all four workloads both ways at 1/50 size: set-up, warm-up,
// timed rounds, the traced rounds with their orphan and closure checks, and
// the probes.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		small := w.scaled(smokeDiv)
		res, err := runUntraced(small, 1, 0, t.TempDir())
		if err != nil {
			t.Fatalf("%s untraced: %v", w.Name, err)
		}
		checkResult(t, res, untracedDefs)
		res, spans, err := runTraced(small, 1, 0, t.TempDir(), smokeDiv)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		checkResult(t, res, perLayer)
		if len(spans) == 0 {
			t.Errorf("%s: traced run kept no span log", w.Name)
		}
	}
}

// TestOracleRejectsCorruption flips one byte of one output file between a
// workflow's end and the read-back: the pass must be counted as failed.
func TestOracleRejectsCorruption(t *testing.T) {
	b, err := setup(findWorkload("small-tasks").scaled(smokeDiv), 1, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	p, err := b.runWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.verify(p); err != nil || p.bad != 0 {
		t.Fatalf("clean pass: err=%v bad=%d", err, p.bad)
	}

	p, err = b.runWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	files, err := b.se.List(p.outputs)
	if err != nil || len(files) == 0 {
		t.Fatalf("listing %s: %v (%d files)", p.outputs, err, len(files))
	}
	victim := p.outputs + "/" + files[0].Name
	data, err := b.se.GetFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 1
	if err := b.se.PutFile(victim, data); err != nil {
		t.Fatal(err)
	}
	if err := b.verify(p); err != nil {
		t.Fatal(err)
	}
	if p.bad != 1 {
		t.Errorf("oracle accepted a corrupted output file")
	}
	if _, failed := tally([]round{{p}}); failed != 1 {
		t.Errorf("corrupted pass tallied %d failures, want 1", failed)
	}
}
