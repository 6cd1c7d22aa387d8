package health

import (
	"strings"
	"testing"
)

// fleetAt builds a merged view directly from series for engine tests.
func fleetAt(now float64, series ...Series) *Fleet {
	f := &Fleet{Time: now, Series: series}
	f.index()
	return f
}

func s(name string, value float64, kv ...string) Series {
	sr := Series{Name: name, Value: value}
	if len(kv) > 0 {
		sr.Labels = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			sr.Labels[kv[i]] = kv[i+1]
		}
	}
	return sr
}

func TestExprValueAndMax(t *testing.T) {
	f := fleetAt(10,
		s("depth", 5, "component", "worker"),
		s("depth", 3, "component", "worker"),
		s("depth", 9, "component", "master"),
	)
	var st ruleState
	e := Expr{Metric: "depth"}
	if v, ok := e.eval(f, &st, 10); !ok || v != 17 {
		t.Fatalf("value = %v,%v want 17,true", v, ok)
	}
	e = Expr{Metric: "depth", Fn: "max"}
	if v, ok := e.eval(f, &st, 10); !ok || v != 9 {
		t.Fatalf("max = %v,%v want 9,true", v, ok)
	}
	e = Expr{Metric: "depth", Match: map[string]string{"component": "worker"}}
	if v, ok := e.eval(f, &st, 10); !ok || v != 8 {
		t.Fatalf("matched value = %v,%v want 8,true", v, ok)
	}
	e = Expr{Metric: "absent"}
	if _, ok := e.eval(f, &st, 10); ok {
		t.Fatal("absent metric should abstain")
	}
}

func TestExprRate(t *testing.T) {
	e := Expr{Metric: "evictions", Fn: "rate"}
	var st ruleState
	if _, ok := e.eval(fleetAt(0, s("evictions", 100)), &st, 0); ok {
		t.Fatal("first rate observation should abstain")
	}
	if v, ok := e.eval(fleetAt(10, s("evictions", 150)), &st, 10); !ok || v != 5 {
		t.Fatalf("rate = %v,%v want 5,true", v, ok)
	}
	// A counter reset counts the post-reset value, then resumes from the
	// new base.
	if v, ok := e.eval(fleetAt(20, s("evictions", 3)), &st, 20); !ok || v != 0.3 {
		t.Fatalf("reset rate = %v,%v want 0.3,true", v, ok)
	}
	if v, ok := e.eval(fleetAt(30, s("evictions", 23)), &st, 30); !ok || v != 2 {
		t.Fatalf("post-reset rate = %v,%v want 2,true", v, ok)
	}
}

// TestExprRateWindowBounded: a windowed rate remembers only the samples
// inside its window, edge included, however long it runs, and a
// zero-window rate only the last two.
func TestExprRateWindowBounded(t *testing.T) {
	for _, c := range []struct {
		window      float64
		keep        int
		firstMillis int64
	}{{30, 4, 970_000}, {0, 2, 990_000}} {
		e := Expr{Metric: "done", Fn: "rate", Window: c.window}
		var st ruleState
		for i := 0; i <= 100; i++ {
			now := float64(10 * i)
			v, ok := e.eval(fleetAt(now, s("done", 2*now)), &st, now)
			if i > 0 && (!ok || v != 2) {
				t.Fatalf("window %g tick %d: rate = %v,%v want 2,true", c.window, i, v, ok)
			}
		}
		if len(st.window) != c.keep || st.window[0].ms != c.firstMillis {
			t.Errorf("window %g holds %v, want the last %d samples", c.window, st.window, c.keep)
		}
	}
}

func TestExprStall(t *testing.T) {
	e := Expr{Metric: "done", Fn: "stall"}
	var st ruleState
	if v, ok := e.eval(fleetAt(100, s("done", 10)), &st, 100); !ok || v != 0 {
		t.Fatalf("first stall = %v,%v want 0,true", v, ok)
	}
	if v, _ := e.eval(fleetAt(160, s("done", 10)), &st, 160); v != 60 {
		t.Fatalf("stall after flat minute = %v, want 60", v)
	}
	if v, _ := e.eval(fleetAt(170, s("done", 11)), &st, 170); v != 0 {
		t.Fatalf("stall after progress = %v, want 0", v)
	}
}

func TestExprHistMean(t *testing.T) {
	e := Expr{Metric: "exec_seconds", Fn: "hist_mean"}
	var st ruleState
	f := fleetAt(0,
		s("exec_seconds_sum", 30, "component", "worker"),
		s("exec_seconds_count", 10, "component", "worker"),
		s("exec_seconds_sum", 10, "component", "worker"),
		s("exec_seconds_count", 10, "component", "worker"),
	)
	if v, ok := e.eval(f, &st, 0); !ok || v != 2 {
		t.Fatalf("hist_mean = %v,%v want 2,true", v, ok)
	}
	if _, ok := e.eval(fleetAt(0), &st, 0); ok {
		t.Fatal("no observations should abstain")
	}
}

func TestRuleHysteresis(t *testing.T) {
	rs := NewRuleSet([]Rule{{
		Name: "deep", Expr: Expr{Metric: "depth"}, Threshold: 10, For: 2, Clear: 3,
	}})
	tick := func(now, depth float64) []Transition {
		return rs.Evaluate(fleetAt(now, s("depth", depth)), now)
	}
	if tr := tick(1, 50); len(tr) != 0 {
		t.Fatalf("fired after 1 tick with For=2: %+v", tr)
	}
	tr := tick(2, 50)
	if len(tr) != 1 || !tr[0].Firing || tr[0].Value != 50 || tr[0].Threshold != 10 {
		t.Fatalf("want firing transition, got %+v", tr)
	}
	if got := rs.Firing(); len(got) != 1 || got[0] != "deep" {
		t.Fatalf("Firing() = %v", got)
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
	if got := rs.Firing(); len(got) != 0 {
		t.Fatalf("Firing() after resolve = %v", got)
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
	f := fleetAt(1, s("stall_metric", 100), s("running", 0))
	if tr := rs.Evaluate(f, 1); len(tr) != 0 {
		t.Fatalf("gated rule fired: %+v", tr)
	}
	// Gate opens: fires.
	f = fleetAt(2, s("stall_metric", 100), s("running", 3))
	tr := rs.Evaluate(f, 2)
	if len(tr) != 1 || !tr[0].Firing {
		t.Fatalf("want firing, got %+v", tr)
	}
	// Gate closes while firing: counts as condition false → resolves.
	f = fleetAt(3, s("stall_metric", 100), s("running", 0))
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
	f := fleetAt(1, s("stall_val", 150), s("exec_sum", 200), s("exec_count", 10))
	if tr := rs.Evaluate(f, 1); len(tr) != 0 {
		t.Fatalf("fired below derived threshold: %+v", tr)
	}
	f = fleetAt(2, s("stall_val", 250), s("exec_sum", 200), s("exec_count", 10))
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
	f = fleetAt(3, s("stall_val", 90))
	tr = rs.Evaluate(f, 3)
	if len(tr) != 1 || !tr[0].Firing || tr[0].Threshold != 60 {
		t.Fatalf("want floor threshold 60, got %+v", tr)
	}
}

func TestLoadRules(t *testing.T) {
	rs, err := LoadRules(strings.NewReader(`[
		{"name": "a", "expr": {"metric": "m", "fn": "rate"}, "threshold": 1, "for": 2},
		{"name": "b", "expr": {"metric": "n", "fn": "max"}, "threshold": 4}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 2 || rs.Rules[0].For != 2 || rs.Rules[1].Expr.Fn != "max" {
		t.Fatalf("rules = %+v", rs.Rules)
	}
	// Wrapped form.
	rs, err = LoadRules(strings.NewReader(`{"rules": [{"name": "a", "expr": {"metric": "m"}}]}`))
	if err != nil || len(rs.Rules) != 1 {
		t.Fatalf("wrapped form: %v, %+v", err, rs)
	}
	for _, bad := range []string{
		`[{"expr": {"metric": "m"}}]`,                                                      // no name
		`[{"name": "a", "expr": {}}]`,                                                      // no metric
		`[{"name": "a", "expr": {"metric": "m", "fn": "median"}}]`,                         // unknown fn
		`[{"name": "a", "expr": {"metric": "m", "fn": "imbalance"}}]`,                      // removed fn
		`[{"name": "a", "expr": {"metric": "m", "fn": "stall", "window": 60}}]`,            // window on stall
		`[{"name": "a", "expr": {"metric": "m"}}, {"name": "a", "expr": {"metric": "m"}}]`, // dup
		`not json`,
	} {
		if _, err := LoadRules(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadRules(%q) succeeded, want error", bad)
		}
	}
	// A rule file written for the striped master's skew detector is
	// refused by name, not as an unknown fn.
	_, err = LoadRules(strings.NewReader(`[{"name": "a", "expr": {"metric": "m", "fn": "imbalance", "over": "shard"}}]`))
	if err == nil || !strings.Contains(err.Error(), `fn "imbalance" was removed`) {
		t.Errorf("imbalance rule: err = %v, want it refused by name", err)
	}
}

// TestDefaultRulesValid pins that the built-in set passes its own
// validation (round-tripped through the JSON loader).
func TestDefaultRulesValid(t *testing.T) {
	rules := DefaultRules()
	if len(rules) != 4 {
		t.Fatalf("default rules = %d, want 4", len(rules))
	}
	names := map[string]bool{}
	for _, r := range rules {
		names[r.Name] = true
	}
	for _, want := range []string{"eviction_spike", "stuck_tasks", "chirp_pool_exhausted", "worker_ramp_stall"} {
		if !names[want] {
			t.Errorf("default rule %q missing", want)
		}
	}
}
