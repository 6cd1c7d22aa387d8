package main

import (
	"bytes"
	"strings"
	"testing"

	"lobster/internal/health"
	"lobster/internal/telemetry"
)

// TestEvaluateFinalTick: a run shorter than one alert interval still has
// its rules evaluated once after it returns, and the transition is in the
// event log by the time finish returns.
func TestEvaluateFinalTick(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("lobster_wq_workers_lost_total", "Lost.").Inc()
	var buf bytes.Buffer
	evl := telemetry.NewEventLog(&buf, reg.Now)
	hub := health.NewHub(health.Config{Registry: reg, Log: evl, Rules: health.NewRuleSet([]health.Rule{{
		Name: "worker_lost", Expr: health.Expr{Metric: "lobster_wq_workers_lost_total"},
	}})})

	finish := evaluate(hub)
	finish()
	if alerts := hub.Alerts(); len(alerts) != 1 || alerts[0].Rule != "worker_lost" || !alerts[0].Firing() {
		t.Fatalf("alerts after finish = %+v, want worker_lost firing", alerts)
	}
	if err := evl.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"alert"`) {
		t.Fatalf("event log lacks the alert:\n%s", buf.String())
	}
}
