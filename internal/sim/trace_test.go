package sim

import (
	"bytes"
	"math"
	"testing"

	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// tracedRun runs cfg with a sim-clocked tracer attached and returns the
// result, the registry, and the decoded trace records.
func tracedRun(t *testing.T, cfg BigRunConfig) (*BigRunResult, *telemetry.Registry, []trace.Record) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	log := telemetry.NewEventLog(&buf, nil)
	cfg.Telemetry = reg
	cfg.Tracer = trace.New(trace.Config{Registry: reg, Log: log})
	res, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return res, reg, recs
}

// TestGoldenBigRunTraced reruns the Figure 11 golden with tracing on:
// span emission must not perturb the simulated physics by a single bit,
// because tracing never touches the RNG or event ordering.
func TestGoldenBigRunTraced(t *testing.T) {
	res, _, recs := tracedRun(t, SimRunConfig(0.05))
	if res.TasksDone != 1860 || res.TasksFailed != 383 || res.Evictions != 41 ||
		res.WANBytes != 0 || res.ChirpBytes != 107303801934.7655 || res.PeakCores != 1000 {
		t.Errorf("traced run diverged from golden: done=%d failed=%d evict=%d wan=%.17g chirp=%.17g peak=%d",
			res.TasksDone, res.TasksFailed, res.Evictions, res.WANBytes, res.ChirpBytes, res.PeakCores)
	}
	if len(recs) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	// One root per attempt: successes plus recorded failures plus
	// end-of-window cancellations; at minimum done+failed roots exist.
	trees := trace.BuildTrees(recs)
	if len(trees) < res.TasksDone+res.TasksFailed {
		t.Errorf("got %d traces, want ≥ %d", len(trees), res.TasksDone+res.TasksFailed)
	}
}

// TestBigRunTraceReconciliation checks the tentpole acceptance bar: the
// per-segment breakdown derived from trace spans must reconcile with the
// lobster_task_stage_seconds histogram sums within 1%. Spans are emitted
// at exactly the points the histograms observe, so the match is in fact
// exact; 1% is the allowed slack.
func TestBigRunTraceReconciliation(t *testing.T) {
	_, reg, recs := tracedRun(t, SimRunConfig(0.02))
	trees := trace.BuildTrees(recs)
	b := trace.Analyze(trees)

	series := scrape(t, reg)
	histSum := func(stage string) float64 {
		t.Helper()
		for _, s := range series {
			if s.Name == "lobster_task_stage_seconds_sum" && s.Labels["stage"] == stage {
				return s.Value
			}
		}
		t.Fatalf("no lobster_task_stage_seconds{stage=%q} series", stage)
		return 0
	}
	for _, seg := range []string{"dispatch", "setup", "stage_in", "execute", "stage_out"} {
		want := histSum(seg)
		got := b.Seconds[seg]
		if want <= 0 {
			t.Errorf("histogram sum for %s is %v, want > 0", seg, want)
			continue
		}
		if diff := math.Abs(got - want); diff > 0.01*want {
			t.Errorf("segment %s: trace breakdown %.3f s vs histogram %.3f s (Δ %.2f%%)",
				seg, got, want, 100*diff/want)
		}
	}
}
