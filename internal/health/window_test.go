package health

import (
	"testing"

	"lobster/internal/monitor"
	"lobster/internal/telemetry"
)

// TestWindowedRateCounterResetHysteresis is the regression the windowed
// rules exist for: a counter that resets mid-window (its process
// restarted) must not wobble a firing rate rule through its hysteresis.
// The single-tick rate abstained on the reset tick, eating into the
// Clear budget; the windowed rate rides through because the
// counter-reset-safe increase still sees the surrounding climb. A gauge
// stands in for the counter, since a registry counter never goes down.
func TestWindowedRateCounterResetHysteresis(t *testing.T) {
	reg := telemetry.NewRegistry()
	restarts := reg.Gauge("lobster_restarts_total", "Restarts.")
	now := 0.0
	reg.SetClock(func() float64 { return now })
	rules := NewRuleSet([]Rule{{
		Name:      "busy",
		Expr:      Expr{Metric: "lobster_restarts_total", Fn: "rate", Window: 30},
		Threshold: 0.5,
		For:       2,
		Clear:     3,
	}})
	hub := NewHub(Config{Registry: reg, Rules: rules})
	tick := func(v float64) []monitor.AlertRecord {
		now += 10
		restarts.Set(v)
		return hub.Tick()
	}

	// Climb at 1/s: fires once For=2 window evaluations hold.
	tick(0)
	tick(10)
	got := tick(20)
	if len(got) != 1 || got[0].Rule != "busy" || !got[0].Firing() {
		t.Fatalf("want busy firing after climb, got %+v", got)
	}

	// Counter reset mid-window (process restart): 20 → 5, then the
	// climb continues. Window increase stays 15 over 20s = 0.75/s, so
	// the rule must hold — no resolve, no re-fire.
	if got := tick(5); len(got) != 0 {
		t.Fatalf("reset tick emitted %+v", got)
	}
	if got := tick(15); len(got) != 0 {
		t.Fatalf("post-reset tick emitted %+v", got)
	}
	if firing := rules.Firing(); len(firing) != 1 || firing[0] != "busy" {
		t.Fatalf("rule should still be firing across the reset, got %v", firing)
	}

	// Counter goes flat: Clear=3 quiet evaluations resolve it.
	var resolved []monitor.AlertRecord
	for i := 0; i < 5; i++ {
		resolved = append(resolved, tick(15)...)
	}
	if len(resolved) != 1 || resolved[0].State != "resolved" {
		t.Fatalf("want one resolved, got %+v", resolved)
	}
}

// TestWindowedStallSeesThroughRestart: stall measures from the last
// observed change of the value.
func TestWindowedStallSeesThroughRestart(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("lobster_wq_tasks_done_total", "Done.").Inc()
	now := 0.0
	reg.SetClock(func() float64 { return now })
	hub := NewHub(Config{Registry: reg, Rules: NewRuleSet([]Rule{{
		Name:      "stuck",
		Expr:      Expr{Metric: "lobster_wq_tasks_done_total", Fn: "stall"},
		Threshold: 25,
	}})})
	for i := 0; i < 3; i++ {
		now += 10
		if got := hub.Tick(); len(got) != 0 {
			t.Fatalf("tick %d emitted %+v", i, got)
		}
	}
	// t=40: flat since t=10 → stall = 30 > 25 → fires.
	now += 10
	got := hub.Tick()
	if len(got) != 1 || got[0].Rule != "stuck" || !got[0].Firing() {
		t.Fatalf("want stuck firing at t=40, got %+v", got)
	}
	if got[0].Value != 30 {
		t.Fatalf("stall value = %g, want 30 (measured from recorded history)", got[0].Value)
	}
}
