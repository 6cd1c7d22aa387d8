package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lobster/internal/core"
	"lobster/internal/deploy"
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
	if alerts := hub.Alerts(); len(alerts) != 1 || alerts[0].Rule != "worker_lost" || alerts[0].State != "firing" {
		t.Fatalf("alerts after finish = %+v, want worker_lost firing", alerts)
	}
	if err := evl.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"alert"`) {
		t.Fatalf("event log lacks the alert:\n%s", buf.String())
	}
}

// TestDefaultRulesReadLobsterSeries: every metric a default rule reads —
// its expression, its derived threshold and its gate — is on the page of
// the registry a lobster run instruments. A rule whose series no lobster
// component registers abstains on every tick and can never fire.
func TestDefaultRulesReadLobsterSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	st, err := deploy.Start(deploy.Options{
		Files: 2, LumisPerFile: 2, EventsPerFile: 10,
		Workers: 1, CoresPerWorker: 2,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := core.New(core.Config{
		Name: "rules", Kind: core.KindAnalysis, Dataset: st.Dataset.Name,
		TaskletsPerTask: 2, AccessMode: core.AccessStream, EventSize: st.EventSize(),
	}, st.Services)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(time.Minute)
	if rep, err := l.Run(); err != nil || !rep.Succeeded() {
		t.Fatalf("run: %v, %+v", err, rep)
	}

	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	p, err := health.ParseMetrics(&page)
	if err != nil {
		t.Fatal(err)
	}
	onPage := map[string]bool{}
	for _, s := range p.Series() {
		onPage[s.Name] = true
	}
	check := func(rule, role string, e *health.Expr) {
		names := []string{e.Metric}
		if e.Fn == "hist_mean" {
			names = []string{e.Metric + "_sum", e.Metric + "_count"}
		}
		for _, n := range names {
			if !onPage[n] {
				t.Errorf("rule %s: %s reads %s, which no lobster component registers", rule, role, n)
			}
		}
	}
	for _, r := range health.DefaultRules() {
		check(r.Name, "expression", &r.Expr)
		if r.ThresholdExpr != nil {
			check(r.Name, "threshold", r.ThresholdExpr)
		}
		if r.Gate != nil {
			check(r.Name, "gate", &r.Gate.Expr)
		}
	}
}
