package health

import (
	"math"
	"sort"
)

// Expr selects and reduces a page's series to one scalar. Fn picks the
// reduction:
//
//	value     sum of the matching series (default)
//	max       max of the matching series
//	rate      counter-reset-safe per-second increase of the summed value
//	          over the last Window seconds, or since the last tick when
//	          Window is zero
//	stall     seconds since the summed value last changed
//	hist_mean mean of a histogram metric (sum of _sum over sum of
//	          _count)
//
// rate and stall are multi-tick functions over the rule's own bounded
// memory (ruleState): rate abstains until it holds two samples, stall
// measures from its first observation. Every fn abstains (the rule is
// skipped that tick) when no series match, so a rule degrades quietly in
// a process that does not register its metric.
type Expr struct {
	Metric string
	Match  map[string]string
	Fn     string

	// Window widens rate to the samples of this many seconds. Zero
	// keeps the single-tick lookback. Only rate takes one: stall
	// measures from the last change however long ago that was.
	Window float64
}

// Gate conditions a rule on a second expression: the rule only evaluates
// on ticks where `Expr Op Threshold` holds. A closed gate counts as the
// condition being false, so a firing rule resolves through its Clear
// hysteresis when the gate closes.
type Gate struct {
	Expr      Expr
	Op        string
	Threshold float64
}

// Rule is one declarative anomaly detector: an expression, a comparison
// against a static or derived threshold, and firing hysteresis.
type Rule struct {
	Name     string
	Help     string
	Severity string // "warn" (default) or "critical"

	Expr Expr
	Op   string // ">", ">=", "<", "<=" (default ">")

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
// every evaluation. It is all the history a rule has: rate keeps the
// samples inside its window, stall the value and when it last changed.
type ruleState struct {
	// expression memory (rate / stall)
	window     []sample
	prevVal    float64
	hasPrev    bool
	lastChange float64

	// hysteresis
	over   int
	under  int
	firing bool
}

// exceeds applies the rule's comparison operator.
func exceeds(op string, val, threshold float64) bool {
	switch op {
	case "<":
		return val < threshold
	case "<=":
		return val <= threshold
	case ">=":
		return val >= threshold
	default:
		return val > threshold
	}
}

// sample is one (time, summed value) observation a rate rule remembers.
// Time is in integer milliseconds so the window edge is exact.
type sample struct {
	ms int64
	v  float64
}

func millis(t float64) int64 { return int64(math.Round(t * 1000)) }

// rateLookback bounds how far a zero-window rate looks for its previous
// sample.
const rateLookback = 3600.0

// counterIncrease returns the reset-safe increase over samples and the
// seconds between the first and the last. A counter reset (the value
// drops) contributes the post-reset value, matching Prometheus: the
// counter restarted from zero, so everything accumulated since counts.
func counterIncrease(samples []sample) (inc, elapsed float64, ok bool) {
	if len(samples) < 2 {
		return 0, 0, false
	}
	prev := samples[0].v
	for _, p := range samples[1:] {
		if p.v >= prev {
			inc += p.v - prev
		} else {
			inc += p.v
		}
		prev = p.v
	}
	return inc, float64(samples[len(samples)-1].ms)/1000 - float64(samples[0].ms)/1000, true
}

// rate records cur at now and returns the per-second increase over the
// rule's window: the samples no older than now-window, or the last two
// (within rateLookback) when window is zero, the tick-over-tick rate.
func (st *ruleState) rate(window, now, cur float64) (float64, bool) {
	lookback, keep := window, 0
	if window <= 0 {
		lookback, keep = rateLookback, 2
	}
	st.window = append(st.window, sample{millis(now), cur})
	edge, drop := millis(now-lookback), 0
	for drop < len(st.window) && st.window[drop].ms < edge {
		drop++
	}
	if keep > 0 && len(st.window)-drop > keep {
		drop = len(st.window) - keep
	}
	if drop > 0 {
		st.window = append(st.window[:0], st.window[drop:]...)
	}
	inc, elapsed, ok := counterIncrease(st.window)
	if !ok || elapsed <= 0 {
		return 0, false
	}
	return inc / elapsed, true
}

// eval reduces the expression against the page at time now, using
// (and updating) the rule's memory. ok is false when the expression
// abstains this tick.
func (e *Expr) eval(f *Fleet, st *ruleState, now float64) (val float64, ok bool) {
	switch e.Fn {
	case "", "value":
		sel := f.Select(e.Metric, e.Match)
		if len(sel) == 0 {
			return 0, false
		}
		for _, s := range sel {
			val += s.Value
		}
		return val, true
	case "max":
		sel := f.Select(e.Metric, e.Match)
		if len(sel) == 0 {
			return 0, false
		}
		for i, s := range sel {
			if i == 0 || s.Value > val {
				val = s.Value
			}
		}
		return val, true
	case "rate":
		sel := f.Select(e.Metric, e.Match)
		if len(sel) == 0 {
			return 0, false
		}
		cur := 0.0
		for _, s := range sel {
			cur += s.Value
		}
		return st.rate(e.Window, now, cur)
	case "stall":
		sel := f.Select(e.Metric, e.Match)
		if len(sel) == 0 {
			return 0, false
		}
		cur := 0.0
		for _, s := range sel {
			cur += s.Value
		}
		if !st.hasPrev || cur != st.prevVal {
			st.prevVal, st.hasPrev, st.lastChange = cur, true, now
			return 0, true
		}
		return now - st.lastChange, true
	case "hist_mean":
		count := f.Value(e.Metric+"_count", e.Match)
		if count <= 0 {
			return 0, false
		}
		return f.Value(e.Metric+"_sum", e.Match) / count, true
	default:
		return 0, false
	}
}

// effectiveThreshold resolves the static-or-derived bound for this tick.
func (r *Rule) effectiveThreshold(f *Fleet, now float64) (float64, bool) {
	if r.ThresholdExpr == nil {
		return r.Threshold, true
	}
	var scratch ruleState // derived thresholds use memoryless fns
	dyn, ok := r.ThresholdExpr.eval(f, &scratch, now)
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

// Evaluate runs every rule against the page's view and returns the
// state transitions (rules that fired or resolved this tick), in rule
// order. Steady states — still firing, still quiet — produce nothing.
func (rs *RuleSet) Evaluate(f *Fleet, now float64) []Transition {
	if rs == nil {
		return nil
	}
	var out []Transition
	for i := range rs.Rules {
		r := &rs.Rules[i]
		st := &rs.states[i]

		threshold, thrOK := r.effectiveThreshold(f, now)
		val, ok := r.Expr.eval(f, st, now)
		cond := false
		if ok && thrOK {
			cond = exceeds(r.Op, val, threshold)
		}
		if r.Gate != nil && cond {
			var scratch ruleState
			gv, gok := r.Gate.Expr.eval(f, &scratch, now)
			if !gok || !exceeds(r.Gate.Op, gv, r.Gate.Threshold) {
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

// Firing returns the names of the rules currently in the firing state,
// sorted.
func (rs *RuleSet) Firing() []string {
	if rs == nil {
		return nil
	}
	var out []string
	for i := range rs.Rules {
		if rs.states[i].firing {
			out = append(out, rs.Rules[i].Name)
		}
	}
	sort.Strings(out)
	return out
}

// DefaultRules is the built-in detector set covering the failure modes
// the paper's operations narrative calls out: opportunistic eviction
// storms, wedged tasks, chirp connection-pool saturation, and a worker
// ramp that stops climbing while work is queued.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:      "eviction_spike",
			Help:      "pilot evictions are arriving faster than the opportunistic baseline",
			Severity:  "critical",
			Expr:      Expr{Metric: "lobster_cluster_evictions_total", Fn: "rate"},
			Threshold: 0.5, // evictions/sec, over the whole pool
			For:       2,
			Clear:     3,
			Profile:   true,
		},
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
		{
			Name:      "worker_ramp_stall",
			Help:      "work is queued but the connected-worker count has stopped climbing",
			Severity:  "warn",
			Expr:      Expr{Metric: "lobster_cluster_pilots_up", Fn: "stall"},
			Threshold: 600,
			Gate:      &Gate{Expr: Expr{Metric: "lobster_wq_tasks_waiting"}, Threshold: 0},
			For:       2,
			Clear:     2,
		},
	}
}
