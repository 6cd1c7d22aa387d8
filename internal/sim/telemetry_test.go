package sim

import (
	"strings"
	"testing"

	"lobster/internal/health"
	"lobster/internal/telemetry"
)

// scrape reads reg the way the health hub does: its /metrics page, parsed.
func scrape(t *testing.T, reg *telemetry.Registry) []health.Series {
	t.Helper()
	series, err := (&health.RegistrySource{Reg: reg}).Scrape()
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// TestBigRunTelemetrySeries runs the Figure 11 model with a registry
// attached and checks that the real plane's series come out populated, on
// the simulated clock.
func TestBigRunTelemetrySeries(t *testing.T) {
	cfg := SimRunConfig(0.05)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	res, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The registry clock is the simulation clock: after the run it reads
	// simulated seconds, not wall seconds.
	if now := reg.Now(); now < cfg.Duration*0.9 {
		t.Errorf("registry clock = %.0f, want ≥ %.0f (simulated seconds)", now, cfg.Duration*0.9)
	}

	series := scrape(t, reg)
	val := func(name string) float64 {
		t.Helper()
		for _, s := range series {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("series %s missing from the page", name)
		return 0
	}
	count := func(name string) int64 {
		t.Helper()
		return int64(val(name + "_count"))
	}

	if got := val("lobster_wq_tasks_done_total"); got != float64(res.TasksDone) {
		t.Errorf("tasks_done series = %v, result = %d", got, res.TasksDone)
	}
	if got := val("lobster_wq_tasks_failed_total"); got != float64(res.TasksFailed) {
		t.Errorf("tasks_failed series = %v, result = %d", got, res.TasksFailed)
	}
	if got := val("lobster_cluster_evictions_total"); got != float64(res.Evictions) {
		t.Errorf("evictions series = %v, result = %d", got, res.Evictions)
	}
	if got := val("lobster_wq_dispatches_total"); got < float64(res.TasksDone+res.TasksFailed) {
		t.Errorf("dispatches = %v, want ≥ done+failed = %d", got, res.TasksDone+res.TasksFailed)
	}
	if hr := val("lobster_squid_hit_ratio"); hr <= 0 || hr >= 1 {
		t.Errorf("squid hit ratio = %v, want in (0,1) for a mixed cold/warm run", hr)
	}
	if got := val("lobster_chirp_bytes_in_total"); got <= 0 {
		t.Errorf("chirp bytes in = %v, want > 0 (stage-out traffic)", got)
	}
	for _, stage := range []string{"dispatch", "setup", "stage_in", "execute", "stage_out"} {
		found := false
		for _, s := range series {
			if s.Name == "lobster_task_stage_seconds_count" && s.Labels["stage"] == stage && s.Value > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("stage histogram %q has no observations", stage)
		}
	}
	if c := count("lobster_task_stage_seconds"); c < 0 {
		t.Errorf("stage histogram count = %d", c)
	}

	// The exposition carries the acceptance series.
	var b strings.Builder
	reg.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"lobster_wq_tasks_waiting", "lobster_squid_hit_ratio",
		"lobster_chirp_active_connections", "lobster_cluster_pilots_up",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestBigRunTelemetryDeterminism checks that attaching telemetry changes
// nothing about the simulated physics: instrumentation must not touch the
// RNG or event ordering.
func TestBigRunTelemetryDeterminism(t *testing.T) {
	cfg := SimRunConfig(0.02)
	plain, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.NewRegistry()
	instr, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TasksDone != instr.TasksDone || plain.TasksFailed != instr.TasksFailed ||
		plain.Evictions != instr.Evictions || plain.PeakCores != instr.PeakCores ||
		plain.WANBytes != instr.WANBytes || plain.ChirpBytes != instr.ChirpBytes {
		t.Errorf("instrumented run diverged: plain=%+v instrumented=%+v",
			summary(plain), summary(instr))
	}
}

func summary(r *BigRunResult) map[string]float64 {
	return map[string]float64{
		"done": float64(r.TasksDone), "failed": float64(r.TasksFailed),
		"evictions": float64(r.Evictions), "peak": float64(r.PeakCores),
		"wan": r.WANBytes, "chirp": r.ChirpBytes,
	}
}
