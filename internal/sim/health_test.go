package sim

import (
	"fmt"
	"testing"

	"lobster/internal/health"
	"lobster/internal/monitor"
	"lobster/internal/telemetry"
)

// healthRun runs cfg with a health hub evaluating the default rules over
// the run's own sim-clocked registry every interval simulated seconds,
// returning the result and the alert transitions the hub emitted.
func healthRun(t *testing.T, cfg BigRunConfig, interval float64) (*BigRunResult, []monitor.AlertRecord) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	hub := health.NewHub(health.Config{Registry: reg})
	cfg.HealthInterval = interval
	cfg.HealthTick = func(float64) { hub.Tick() }
	res, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, hub.Alerts()
}

// TestGoldenBigRunHealthAlerts pins the exact alert sequence the default
// detector set produces on the Figure 11 simulation run, evaluated on
// the simulated clock. Two properties are golden here: the run's physics
// must stay bit-identical to the pre-health kernel (the health ticker
// reads the registry and never touches the RNG), and the alert sequence
// itself must be deterministic down to the tick it fires on.
func TestGoldenBigRunHealthAlerts(t *testing.T) {
	res, alerts := healthRun(t, SimRunConfig(0.05), 60)
	if res.TasksDone != 1860 || res.TasksFailed != 383 || res.Evictions != 41 ||
		res.WANBytes != 0 || res.ChirpBytes != 107303801934.7655 || res.PeakCores != 1000 {
		t.Errorf("health-monitored run diverged from golden: done=%d failed=%d evict=%d wan=%.17g chirp=%.17g peak=%d",
			res.TasksDone, res.TasksFailed, res.Evictions, res.WANBytes, res.ChirpBytes, res.PeakCores)
	}
	want := []string{
		"480 stuck_tasks firing",
		"8820 worker_ramp_stall firing",
		"9300 worker_ramp_stall resolved",
		"10560 worker_ramp_stall firing",
		"12000 worker_ramp_stall resolved",
		"13800 stuck_tasks resolved",
		"14760 stuck_tasks firing",
		"15420 stuck_tasks resolved",
		"20820 worker_ramp_stall firing",
		"21600 worker_ramp_stall resolved",
		"21960 chirp_pool_exhausted firing",
		"22860 worker_ramp_stall firing",
		"22980 worker_ramp_stall resolved",
	}
	if len(alerts) != len(want) {
		t.Fatalf("alert count = %d, want %d: %+v", len(alerts), len(want), alerts)
	}
	for i, a := range alerts {
		got := fmt.Sprintf("%g %s %s", a.Time, a.Rule, a.State)
		if got != want[i] {
			t.Errorf("alert %d = %q, want %q", i, got, want[i])
		}
	}
	// The early stuck_tasks is the run's truth, not detector noise: with a
	// 1.5 GB cold cache squeezed through one overwhelmed squid, the first
	// completion takes hours, so tasks run with zero completions far past
	// the watchdog floor — exactly the slow-ramp pathology of the paper's
	// early deployments.
	if alerts[0].Rule != "stuck_tasks" || alerts[0].Value <= 300 {
		t.Errorf("first alert should be the ramp-phase stuck_tasks watchdog: %+v", alerts[0])
	}
}
