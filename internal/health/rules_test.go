package health

import (
	"strings"
	"testing"
)

// TestExprValue: a value sums every series of its name, whatever their
// labels, and abstains for a name the page does not carry.
func TestExprValue(t *testing.T) {
	p, err := ParseMetrics(strings.NewReader(`# TYPE depth gauge
depth{component="worker"} 5
depth{component="worker",shard="1"} 3
depth{component="master"} 9
`))
	if err != nil {
		t.Fatal(err)
	}
	tot := p.totals()
	var st ruleState
	e := Expr{Metric: "depth"}
	if v, ok := e.eval(tot, &st, 10); !ok || v != 17 {
		t.Fatalf("value = %v,%v want 17,true", v, ok)
	}
	e = Expr{Metric: "absent"}
	if _, ok := e.eval(tot, &st, 10); ok {
		t.Fatal("absent metric should abstain")
	}
}

func TestExprStall(t *testing.T) {
	e := Expr{Metric: "done", Fn: "stall"}
	var st ruleState
	if v, ok := e.eval(Totals{"done": 10}, &st, 100); !ok || v != 0 {
		t.Fatalf("first stall = %v,%v want 0,true", v, ok)
	}
	if v, _ := e.eval(Totals{"done": 10}, &st, 160); v != 60 {
		t.Fatalf("stall after flat minute = %v, want 60", v)
	}
	if v, _ := e.eval(Totals{"done": 11}, &st, 170); v != 0 {
		t.Fatalf("stall after progress = %v, want 0", v)
	}
}

func TestExprHistMean(t *testing.T) {
	e := Expr{Metric: "exec_seconds", Fn: "hist_mean"}
	var st ruleState
	if v, ok := e.eval(Totals{"exec_seconds_sum": 40, "exec_seconds_count": 20}, &st, 0); !ok || v != 2 {
		t.Fatalf("hist_mean = %v,%v want 2,true", v, ok)
	}
	if _, ok := e.eval(Totals{}, &st, 0); ok {
		t.Fatal("no observations should abstain")
	}
}

func TestRuleHysteresis(t *testing.T) {
	rs := NewRuleSet([]Rule{{
		Name: "deep", Expr: Expr{Metric: "depth"}, Threshold: 10, For: 2, Clear: 3,
	}})
	tick := func(now, depth float64) []Transition {
		return rs.Evaluate(Totals{"depth": depth}, now)
	}
	if tr := tick(1, 50); len(tr) != 0 {
		t.Fatalf("fired after 1 tick with For=2: %+v", tr)
	}
	tr := tick(2, 50)
	if len(tr) != 1 || !tr[0].Firing || tr[0].Value != 50 || tr[0].Threshold != 10 {
		t.Fatalf("want firing transition, got %+v", tr)
	}
	if !rs.states[0].firing {
		t.Fatal("not firing after the firing transition")
	}
	// Two quiet ticks with Clear=3: still firing.
	if tr := tick(3, 1); len(tr) != 0 {
		t.Fatalf("resolved too early: %+v", tr)
	}
	if tr := tick(4, 1); len(tr) != 0 {
		t.Fatalf("resolved too early: %+v", tr)
	}
	tr = tick(5, 1)
	if len(tr) != 1 || tr[0].Firing {
		t.Fatalf("want resolved transition, got %+v", tr)
	}
	if rs.states[0].firing {
		t.Fatal("still firing after resolve")
	}
	// A dip below threshold resets the For streak.
	tick(6, 50)
	tick(7, 1)
	if tr := tick(8, 50); len(tr) != 0 {
		t.Fatalf("streak should have reset: %+v", tr)
	}
}

func TestRuleGate(t *testing.T) {
	rs := NewRuleSet([]Rule{{
		Name: "stuck", Expr: Expr{Metric: "stall_metric"}, Threshold: 5,
		Gate: &Gate{Expr: Expr{Metric: "running"}, Threshold: 0},
	}})
	// Condition true but gate closed (running == 0): no alert.
	f := Totals{"stall_metric": 100, "running": 0}
	if tr := rs.Evaluate(f, 1); len(tr) != 0 {
		t.Fatalf("gated rule fired: %+v", tr)
	}
	// Gate opens: fires.
	f = Totals{"stall_metric": 100, "running": 3}
	tr := rs.Evaluate(f, 2)
	if len(tr) != 1 || !tr[0].Firing {
		t.Fatalf("want firing, got %+v", tr)
	}
	// Gate closes while firing: counts as condition false → resolves.
	f = Totals{"stall_metric": 100, "running": 0}
	tr = rs.Evaluate(f, 3)
	if len(tr) != 1 || tr[0].Firing {
		t.Fatalf("want resolved when gate closes, got %+v", tr)
	}
}

func TestRuleDynamicThreshold(t *testing.T) {
	rs := NewRuleSet([]Rule{{
		Name: "watchdog", Expr: Expr{Metric: "stall_val"},
		Threshold:     60,
		ThresholdExpr: &Expr{Metric: "exec", Fn: "hist_mean"},
		Scale:         10,
	}})
	// Mean exec 20s → effective threshold max(60, 200) = 200.
	f := Totals{"stall_val": 150, "exec_sum": 200, "exec_count": 10}
	if tr := rs.Evaluate(f, 1); len(tr) != 0 {
		t.Fatalf("fired below derived threshold: %+v", tr)
	}
	f = Totals{"stall_val": 250, "exec_sum": 200, "exec_count": 10}
	tr := rs.Evaluate(f, 2)
	if len(tr) != 1 || !tr[0].Firing || tr[0].Threshold != 200 {
		t.Fatalf("want firing at threshold 200, got %+v", tr)
	}
	// No histogram data yet: the static floor applies.
	rs = NewRuleSet([]Rule{{
		Name: "watchdog", Expr: Expr{Metric: "stall_val"},
		Threshold:     60,
		ThresholdExpr: &Expr{Metric: "exec", Fn: "hist_mean"},
		Scale:         10,
	}})
	f = Totals{"stall_val": 90}
	tr = rs.Evaluate(f, 3)
	if len(tr) != 1 || !tr[0].Firing || tr[0].Threshold != 60 {
		t.Fatalf("want floor threshold 60, got %+v", tr)
	}
}

// TestDefaultRulesValid pins the built-in set's two rules by name.
func TestDefaultRulesValid(t *testing.T) {
	rules := DefaultRules()
	if len(rules) != 2 {
		t.Fatalf("default rules = %d, want 2", len(rules))
	}
	names := map[string]bool{}
	for _, r := range rules {
		names[r.Name] = true
	}
	for _, want := range []string{"stuck_tasks", "chirp_pool_exhausted"} {
		if !names[want] {
			t.Errorf("default rule %q missing", want)
		}
	}
}
