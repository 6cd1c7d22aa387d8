package faultinject_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lobster/internal/core"
	"lobster/internal/deploy"
	"lobster/internal/faultinject"
	"lobster/internal/health"
	"lobster/internal/monitor"
	"lobster/internal/telemetry"
)

// TestChaosFleetHealth runs a worker-kill storm with a health hub
// evaluating the stack's own registry, and asserts the full observability
// loop closes in the run's one event log: the storm's worker losses trip
// an alert rule, the alert lands as a typed event beside the task records
// where monitor.ReplayLog recovers both, and the firing transition writes
// the stressed process's profiles into a bundle.
func TestChaosFleetHealth(t *testing.T) {
	inj := faultinject.New(&faultinject.Plan{
		Seed: 1,
		Rules: []faultinject.Rule{
			{Component: "wq_worker", Op: "read", Action: faultinject.ActDrop, After: 3, Times: 2},
		},
	})
	reg := telemetry.NewRegistry()
	logPath := filepath.Join(t.TempDir(), "events.jsonl")
	evl, err := telemetry.OpenEventLog(logPath, reg.Now)
	if err != nil {
		t.Fatal(err)
	}
	st, err := deploy.Start(deploy.Options{
		Files: 3, LumisPerFile: 2, EventsPerFile: 6,
		Workers: 3, CoresPerWorker: 2,
		ScratchDir: t.TempDir(),
		Seed:       11,
		Telemetry:  reg,
		EventLog:   evl,
		Fault:      inj,
		Retry:      chaosPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	profDir := logPath + ".profiles"
	// The storm detector: any lost worker connection is the paper's
	// eviction signature (the counter is cumulative, so the final
	// post-run tick observes it even when the storm outruns the tick
	// interval). Profile on fire.
	rules := health.NewRuleSet([]health.Rule{{
		Name:     "worker_loss_storm",
		Help:     "worker connections dropped mid-run",
		Severity: "critical",
		Expr:     health.Expr{Metric: "lobster_wq_workers_lost_total"},
		Profile:  true,
	}})
	hub := health.NewHub(health.Config{
		Registry:   reg,
		Rules:      rules,
		Log:        evl,
		ProfileDir: profDir,
	})

	cfg := core.Config{
		Name: "fleethealth", Kind: core.KindAnalysis, Dataset: st.Dataset.Name,
		EventSize: st.EventSize(), TaskletsPerTask: 2, MergeMode: core.MergeNone,
	}
	l, err := core.New(cfg, st.Services)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(time.Minute)

	done := make(chan error, 1)
	var rep *core.RunReport
	go func() {
		var runErr error
		rep, runErr = l.Run()
		done <- runErr
	}()
	// Evaluate continuously while the storm plays out, then take one
	// final tick so the post-run counter state is observed.
	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run under storm: %v", err)
			}
			running = false
		case <-time.After(10 * time.Millisecond):
			hub.Tick()
		}
	}
	hub.Tick()
	if err := evl.Close(); err != nil {
		t.Fatal(err)
	}

	if !rep.Succeeded() {
		t.Fatalf("workflow failed under storm: %+v", rep)
	}
	if inj.TotalFired() == 0 {
		t.Fatal("storm never fired")
	}

	// The alert fired and carries its profile bundle.
	alerts := hub.Alerts()
	var firing *monitor.AlertRecord
	for i := range alerts {
		if alerts[i].Rule == "worker_loss_storm" && alerts[i].State == "firing" {
			firing = &alerts[i]
			break
		}
	}
	if firing == nil {
		t.Fatalf("worker_loss_storm never fired; alerts = %+v, stats = %+v", alerts, st.Services.Master.Stats())
	}
	if firing.Profile == "" {
		t.Fatal("firing alert captured no profile bundle")
	}
	if filepath.Dir(firing.Profile) != profDir {
		t.Errorf("bundle %s is not under %s", firing.Profile, profDir)
	}
	gr, err := os.ReadFile(filepath.Join(firing.Profile, "goroutine.txt"))
	if err != nil {
		t.Fatalf("profile bundle incomplete: %v", err)
	}
	if !strings.Contains(string(gr), "goroutine") {
		t.Error("goroutine capture is not a pprof document")
	}
	if _, err := os.Stat(filepath.Join(firing.Profile, "heap.pb.gz")); err != nil {
		t.Errorf("bundle lacks the heap profile: %v", err)
	}

	// The run's one event log, alert lines and all, replays to its task
	// records, exactly as the monitor recovery path reads it.
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var m monitor.Monitor
	n, err := m.ReplayLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if live := st.Services.Monitor.Records(); n == 0 || n != len(live) {
		t.Errorf("replayed %d task records, want the run's %d", n, len(live))
	}
}
