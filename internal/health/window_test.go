package health

import (
	"testing"

	"lobster/internal/telemetry"
)

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
	if len(got) != 1 || got[0].Rule != "stuck" || got[0].State != "firing" {
		t.Fatalf("want stuck firing at t=40, got %+v", got)
	}
	if got[0].Value != 30 {
		t.Fatalf("stall value = %g, want 30 (measured from recorded history)", got[0].Value)
	}
}
