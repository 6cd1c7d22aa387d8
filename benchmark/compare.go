package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// untraced returns the end-to-end result of workload name, if the report
// has one.
func (r *report) untraced(name string) *result {
	for _, res := range r.Results {
		if res.Workload == name && !res.Traced {
			return res
		}
	}
	return nil
}

// spread is the distance between the quartiles of a metric's rounds as a
// share of their median; 0 when the metric is not taken per round.
func spread(v value) float64 {
	if len(v.Rounds) < 2 || v.Value == 0 {
		return 0
	}
	return (quantile(v.Rounds, 0.75) - quantile(v.Rounds, 0.25)) / median(v.Rounds)
}

// compareReports prints, per workload and untraced metric, both medians
// with their quartiles over the rounds, how much worse b is than a, and the
// bound. A metric whose rounds spread wider than its bound is unresolved,
// not unchanged (setup_s excepted, as in the driver's own rule: a 10 ms
// set-up spreads wide however often it is repeated); the run.* metrics
// carry no bound and get no verdict. The
// return value is the exit code: 0 only when nothing is breached or
// unresolved.
func compareReports(pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatal(err)
	}
	quartiles := func(v value) string {
		if len(v.Rounds) < 2 {
			return fmt.Sprintf("%10.4g %21s", v.Value, "")
		}
		return fmt.Sprintf("%10.4g [%9.4g %9.4g]", v.Value, quantile(v.Rounds, 0.25), quantile(v.Rounds, 0.75))
	}
	code := 0
	fmt.Printf("%-12s %-16s %32s %32s %8s %6s  %s\n", "workload", "metric", "a median [q1 q3]", "b median [q1 q3]", "worse", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a.untraced(w.Name), b.untraced(w.Name)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range untracedDefs {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			worse := (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case d.Bound == 0:
				verdict = fmt.Sprintf("no bound (rounds spread %.0f%% and %.0f%%)", 100*spread(va), 100*spread(vb))
			case d.Name != "setup_s" && (spread(va) > d.Bound || spread(vb) > d.Bound):
				verdict, code = "unresolved: rounds spread wider than the bound", 1
			case worse > d.Bound:
				verdict, code = "BREACH", 1
			}
			fmt.Printf("%-12s %-16s %s %s %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, quartiles(va), quartiles(vb), 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
