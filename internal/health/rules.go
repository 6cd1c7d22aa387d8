package health

// Expr reduces a page's series to one scalar: the value of Metric,
// summed over its series. Fn picks the reduction:
//
//	value     the summed value (default)
//	stall     seconds since the summed value last changed
//	hist_mean mean of a histogram metric (_sum over _count)
//
// stall is the one multi-tick function: it measures from its first
// observation, over the rule's own memory (ruleState). Every fn abstains
// (the rule is skipped that tick) when the metric is not on the page, so
// a rule degrades quietly in a process that does not register it.
type Expr struct {
	Metric string
	Fn     string
}

// Gate conditions a rule on a second expression: the rule only evaluates
// on ticks where `Expr > Threshold` holds. A closed gate counts as the
// condition being false, so a firing rule resolves through its Clear
// hysteresis when the gate closes.
type Gate struct {
	Expr      Expr
	Threshold float64
}

// Rule is one declarative anomaly detector: an expression, a bound it
// must exceed (static or derived), and firing hysteresis.
type Rule struct {
	Name     string
	Help     string
	Severity string // "warn" (default) or "critical"

	Expr Expr

	// Threshold is the static bound. When ThresholdExpr is set the
	// effective bound is max(Threshold, Scale×eval(ThresholdExpr)) —
	// Threshold acts as the floor under the derived value, which is how
	// the stuck-task watchdog pins "N× the observed stage time, but at
	// least a minute".
	Threshold     float64
	ThresholdExpr *Expr
	Scale         float64

	Gate *Gate

	// For is how many consecutive ticks the condition must hold before
	// the rule fires; Clear how many ticks it must not hold before a
	// firing rule resolves. Both default to 1.
	For   int
	Clear int

	// Profile writes this process's goroutine and heap profiles when the
	// rule transitions to firing.
	Profile bool
}

// ruleState is the engine's per-rule memory across ticks, updated on
// every evaluation. It is all the history a rule has: stall keeps the
// value and when it last changed.
type ruleState struct {
	// expression memory (stall)
	prevVal    float64
	hasPrev    bool
	lastChange float64

	// hysteresis
	over   int
	under  int
	firing bool
}

// eval reduces the expression against the page's totals at time now,
// using (and updating) the rule's memory. ok is false when the
// expression abstains this tick.
func (e *Expr) eval(t Totals, st *ruleState, now float64) (val float64, ok bool) {
	switch e.Fn {
	case "", "value":
		val, ok = t[e.Metric]
		return val, ok
	case "stall":
		cur, ok := t[e.Metric]
		if !ok {
			return 0, false
		}
		if !st.hasPrev || cur != st.prevVal {
			st.prevVal, st.hasPrev, st.lastChange = cur, true, now
			return 0, true
		}
		return now - st.lastChange, true
	case "hist_mean":
		count := t[e.Metric+"_count"]
		if count <= 0 {
			return 0, false
		}
		return t[e.Metric+"_sum"] / count, true
	default:
		return 0, false
	}
}

// effectiveThreshold resolves the static-or-derived bound for this tick.
func (r *Rule) effectiveThreshold(t Totals, now float64) (float64, bool) {
	if r.ThresholdExpr == nil {
		return r.Threshold, true
	}
	var scratch ruleState // derived thresholds use memoryless fns
	dyn, ok := r.ThresholdExpr.eval(t, &scratch, now)
	if !ok {
		// Derived bound unavailable (no observations yet): fall back to
		// the floor if one is set, otherwise abstain.
		return r.Threshold, r.Threshold != 0
	}
	scale := r.Scale
	if scale == 0 {
		scale = 1
	}
	if v := scale * dyn; v > r.Threshold {
		return v, true
	}
	return r.Threshold, true
}

// RuleSet is an ordered set of rules with their engine state.
type RuleSet struct {
	Rules  []Rule
	states []ruleState
}

// NewRuleSet wraps rules with fresh engine state.
func NewRuleSet(rules []Rule) *RuleSet {
	return &RuleSet{Rules: rules, states: make([]ruleState, len(rules))}
}

// Transition is one rule state change produced by a tick.
type Transition struct {
	Rule      *Rule
	Firing    bool // true = fired this tick, false = resolved this tick
	Value     float64
	Threshold float64
}

// Evaluate runs every rule against the page's totals and returns the
// state transitions (rules that fired or resolved this tick), in rule
// order. Steady states — still firing, still quiet — produce nothing.
func (rs *RuleSet) Evaluate(t Totals, now float64) []Transition {
	if rs == nil {
		return nil
	}
	var out []Transition
	for i := range rs.Rules {
		r := &rs.Rules[i]
		st := &rs.states[i]

		threshold, thrOK := r.effectiveThreshold(t, now)
		val, ok := r.Expr.eval(t, st, now)
		cond := false
		if ok && thrOK {
			cond = val > threshold
		}
		if r.Gate != nil && cond {
			var scratch ruleState
			gv, gok := r.Gate.Expr.eval(t, &scratch, now)
			if !gok || !(gv > r.Gate.Threshold) {
				cond = false
			}
		}

		if cond {
			st.over++
			st.under = 0
		} else {
			st.under++
			st.over = 0
		}

		forN, clearN := r.For, r.Clear
		if forN <= 0 {
			forN = 1
		}
		if clearN <= 0 {
			clearN = 1
		}
		switch {
		case !st.firing && st.over >= forN:
			st.firing = true
			out = append(out, Transition{Rule: r, Firing: true, Value: val, Threshold: threshold})
		case st.firing && st.under >= clearN:
			st.firing = false
			out = append(out, Transition{Rule: r, Firing: false, Value: val, Threshold: threshold})
		}
	}
	return out
}

// DefaultRules is the built-in detector set covering the failure modes
// of the paper's operations narrative that a lobster process can see in
// its own registry: wedged tasks and chirp connection-pool saturation.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:     "stuck_tasks",
			Help:     "tasks are running but none have completed for far longer than the observed execution time",
			Severity: "critical",
			Expr:     Expr{Metric: "lobster_wq_tasks_done_total", Fn: "stall"},
			// Fire when the completion counter has been flat for 10× the
			// mean observed execution time, but at least 5 minutes — the
			// floor keeps the watchdog quiet during ramp-up, before any
			// completion has seeded the histogram.
			Threshold:     300,
			ThresholdExpr: &Expr{Metric: "lobster_wq_worker_exec_seconds", Fn: "hist_mean"},
			Scale:         10,
			Gate:          &Gate{Expr: Expr{Metric: "lobster_wq_tasks_running"}, Threshold: 0},
			For:           2,
			Clear:         1,
			Profile:       true,
		},
		{
			Name:      "chirp_pool_exhausted",
			Help:      "chirp servers are queueing connections; the concurrency pool is saturated",
			Severity:  "warn",
			Expr:      Expr{Metric: "lobster_chirp_queued_connections"},
			Threshold: 8,
			For:       2,
			Clear:     2,
			Profile:   true,
		},
	}
}
