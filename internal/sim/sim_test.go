package sim

import (
	"math"
	"testing"

	"lobster/internal/cluster"
	"lobster/internal/stats"
)

// smallTaskSizeConfig shrinks the Figure 3 study for fast tests while
// keeping the worker/tasklet ratio of the paper.
func smallTaskSizeConfig() TaskSizeConfig {
	cfg := DefaultTaskSizeConfig()
	cfg.Tasklets = 10000
	cfg.Workers = 800
	return cfg
}

func observedSurvival(t *testing.T) *stats.Empirical {
	t.Helper()
	trace, err := cluster.GenerateTrace(cluster.DefaultTraceConfig(), stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	surv, err := cluster.SurvivalDistribution(trace)
	if err != nil {
		t.Fatal(err)
	}
	return surv
}

func TestFig3NoEvictionApproachesOne(t *testing.T) {
	cfg := smallTaskSizeConfig()
	short, err := SimulateTaskSize(cfg, NoEviction{}, 6) // 1 h tasks
	if err != nil {
		t.Fatal(err)
	}
	long, err := SimulateTaskSize(cfg, NoEviction{}, 60) // 10 h tasks
	if err != nil {
		t.Fatal(err)
	}
	if !(long.Efficiency > short.Efficiency) {
		t.Errorf("no-eviction efficiency not increasing: %g -> %g", short.Efficiency, long.Efficiency)
	}
	if long.Efficiency < 0.85 {
		t.Errorf("long-task no-eviction efficiency = %g, want near 1", long.Efficiency)
	}
	if short.Evictions != 0 || long.Evictions != 0 {
		t.Error("no-eviction scenario evicted workers")
	}
}

func TestFig3EvictionScenariosPeakNearOneHour(t *testing.T) {
	cfg := smallTaskSizeConfig()
	surv := observedSurvival(t)
	results, err := Figure3(cfg, surv, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("scenarios = %d", len(results))
	}
	byName := map[string][]EfficiencyPoint{}
	for _, r := range results {
		byName[r.Scenario] = r.Points
		if len(r.Points) != 10 {
			t.Fatalf("%s has %d points", r.Scenario, len(r.Points))
		}
	}
	// The paper's claims: with eviction, max efficiency ~0.7 at short task
	// lengths; long tasks lose efficiency; without eviction it approaches 1.
	for _, name := range []string{"constant", "observed"} {
		pts := byName[name]
		hours, eff := PeakEfficiency(pts)
		if hours > 4 {
			t.Errorf("%s peak at %g h; paper peaks at short task lengths", name, hours)
		}
		if eff < 0.55 || eff > 0.82 {
			t.Errorf("%s peak efficiency %g outside the ~0.7 band", name, eff)
		}
		if !(pts[len(pts)-1].Efficiency < eff-0.05) {
			t.Errorf("%s efficiency does not decline for 10 h tasks: peak %g, end %g",
				name, eff, pts[len(pts)-1].Efficiency)
		}
	}
	nonePts := byName["none"]
	if !(nonePts[9].Efficiency > nonePts[0].Efficiency && nonePts[9].Efficiency > 0.85) {
		t.Errorf("no-eviction curve wrong: %v", nonePts)
	}
	// With eviction, every task length is worse than without.
	for i := range nonePts {
		if byName["observed"][i].Efficiency >= nonePts[i].Efficiency {
			t.Errorf("observed >= none at point %d", i)
		}
	}
}

func TestFig3Deterministic(t *testing.T) {
	cfg := smallTaskSizeConfig()
	a, err := SimulateTaskSize(cfg, ConstantEviction{RatePerHour: 0.1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SimulateTaskSize(cfg, ConstantEviction{RatePerHour: 0.1}, 6)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestFig3Validation(t *testing.T) {
	if _, err := SimulateTaskSize(DefaultTaskSizeConfig(), NoEviction{}, 0); err == nil {
		t.Error("zero task size accepted")
	}
	if _, err := SimulateTaskSize(TaskSizeConfig{}, NoEviction{}, 1); err == nil {
		t.Error("empty config accepted")
	}
}

func TestFig5KneeNearThousand(t *testing.T) {
	res, err := Figure5(DefaultProxyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flat region: overhead at 1000 tasks within 10% of overhead at 50.
	coldBase := res.Cold[0].MeanOverhead
	var cold1000, cold2000, hot1000, hot2000 float64
	for i, p := range res.Cold {
		if p.Tasks == 1000 {
			cold1000 = p.MeanOverhead
			hot1000 = res.Hot[i].MeanOverhead
		}
		if p.Tasks == 2000 {
			cold2000 = p.MeanOverhead
			hot2000 = res.Hot[i].MeanOverhead
		}
	}
	if cold1000 > coldBase*1.10 {
		t.Errorf("cold overhead rose before 1000 tasks: %g -> %g", coldBase, cold1000)
	}
	if !(cold2000 > cold1000*1.2) {
		t.Errorf("cold overhead flat past the knee: %g -> %g", cold1000, cold2000)
	}
	if !(hot2000 > hot1000) {
		t.Errorf("hot overhead flat past the knee: %g -> %g", hot1000, hot2000)
	}
	// Cold is far more expensive than hot everywhere.
	for i := range res.Cold {
		if res.Cold[i].MeanOverhead < 5*res.Hot[i].MeanOverhead {
			t.Errorf("cold/hot separation lost at %d tasks", res.Cold[i].Tasks)
		}
	}
}

func TestFig5Validation(t *testing.T) {
	if _, err := SimulateProxyLoad(DefaultProxyConfig(), 0, true); err == nil {
		t.Error("zero tasks accepted")
	}
	if _, err := SimulateProxyLoad(ProxyConfig{}, 10, true); err == nil {
		t.Error("empty config accepted")
	}
}

func TestFig4StreamingBeatsStaging(t *testing.T) {
	results, err := Figure4(DefaultAccessConfig())
	if err != nil {
		t.Fatal(err)
	}
	stage, stream := results[0], results[1]
	if stage.Mode != "stage" || stream.Mode != "stream" {
		t.Fatalf("mode order: %s, %s", stage.Mode, stream.Mode)
	}
	// The paper's Figure 4: staging yields lower CPU utilisation and longer
	// overall runtime than streaming.
	if !(stage.MeanRuntime > stream.MeanRuntime) {
		t.Errorf("staging runtime %g not above streaming %g", stage.MeanRuntime, stream.MeanRuntime)
	}
	if !(stage.CPUUtilization < stream.CPUUtilization) {
		t.Errorf("staging utilisation %g not below streaming %g",
			stage.CPUUtilization, stream.CPUUtilization)
	}
	if !(stage.Makespan > stream.Makespan) {
		t.Errorf("staging makespan %g not above streaming %g", stage.Makespan, stream.Makespan)
	}
	// Both process the same events.
	if stage.MeanProcessing != stream.MeanProcessing {
		t.Error("processing time differs between modes")
	}
}

func TestFig4Validation(t *testing.T) {
	if _, err := SimulateAccessMode(DefaultAccessConfig(), "teleport"); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := SimulateAccessMode(AccessConfig{}, "stage"); err == nil {
		t.Error("empty config accepted")
	}
}

func TestFig7ModeOrdering(t *testing.T) {
	cfg := DefaultMergeSimConfig()
	results, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]*MergeTimeline{}
	for _, tl := range results {
		byMode[tl.Mode] = tl
		if tl.MergedFiles == 0 {
			t.Fatalf("%s merged nothing", tl.Mode)
		}
		if len(tl.AnalysisDone) != cfg.AnalysisTasks {
			t.Fatalf("%s finished %d analysis tasks", tl.Mode, len(tl.AnalysisDone))
		}
		if tl.LastMerge <= tl.LastAnalysis && tl.Mode != "interleaved" {
			t.Errorf("%s: merging ended before analysis", tl.Mode)
		}
	}
	seq, hdp, ilv := byMode["sequential"], byMode["hadoop"], byMode["interleaved"]
	// Paper ordering: sequential slowest, interleaved completes first.
	if !(seq.LastMerge > hdp.LastMerge) {
		t.Errorf("sequential (%g) not slower than hadoop (%g)", seq.LastMerge, hdp.LastMerge)
	}
	if !(hdp.LastMerge > ilv.LastMerge) {
		t.Errorf("hadoop (%g) not slower than interleaved (%g)", hdp.LastMerge, ilv.LastMerge)
	}
	// Interleaved merges overlap analysis.
	first := ilv.MergeDone[0]
	for _, m := range ilv.MergeDone {
		if m < first {
			first = m
		}
	}
	if first >= ilv.LastAnalysis {
		t.Error("interleaved merging did not overlap analysis")
	}
	// All modes merge the same outputs.
	if seq.MergedFiles != hdp.MergedFiles || seq.MergedFiles != ilv.MergedFiles {
		t.Errorf("merged file counts differ: %d/%d/%d",
			seq.MergedFiles, hdp.MergedFiles, ilv.MergedFiles)
	}
}

func TestBigRunDataProcessing(t *testing.T) {
	cfg := DataRunConfig(0.05)
	cfg.Duration = 24 * 3600
	cfg.WANOutageStart = 10 * 3600
	cfg.WANOutageEnd = 12 * 3600
	res, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksDone == 0 || res.Evictions == 0 {
		t.Fatalf("run degenerate: %+v", res)
	}
	cores := cfg.Workers * cfg.CoresPerWorker
	if res.PeakCores < cores*9/10 {
		t.Errorf("peak %d never approached %d cores", res.PeakCores, cores)
	}

	// Figure 8 shape: CPU dominates, CPU+I/O ≈ three quarters, all phases
	// present, fractions sum to 1.
	rows := Figure8(res)
	frac := map[string]float64{}
	sum := 0.0
	for _, r := range rows {
		frac[r.Phase] = r.Fraction
		sum += r.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %g", sum)
	}
	if !(frac["Task CPU Time"] > 0.4 && frac["Task CPU Time"] < 0.75) {
		t.Errorf("CPU fraction %g outside paper band", frac["Task CPU Time"])
	}
	taskTotal := frac["Task CPU Time"] + frac["Task I/O Time"]
	if !(taskTotal > 0.6 && taskTotal < 0.92) {
		t.Errorf("CPU+I/O = %g; paper has about three quarters", taskTotal)
	}
	if frac["Task Failed"] <= 0 || frac["WQ Stage In"] <= 0 || frac["WQ Stage Out"] <= 0 {
		t.Errorf("missing phases: %+v", frac)
	}
	if !(frac["Task CPU Time"] > frac["Task I/O Time"]) {
		t.Error("CPU does not dominate I/O")
	}

	// Figure 10 shape: outage produces the failure burst and efficiency dip.
	f10, err := Figure10(res, 3600)
	if err != nil {
		t.Fatal(err)
	}
	peakFail, effIn, effOut := f10.OutageWindowStats(cfg.WANOutageStart, cfg.WANOutageEnd+1800)
	if peakFail == 0 {
		t.Fatal("no failure burst")
	}
	if !(effIn < effOut-0.1) {
		t.Errorf("no efficiency dip during outage: in=%g out=%g", effIn, effOut)
	}
	if !(effOut > 0.5 && effOut < 0.8) {
		t.Errorf("steady-state efficiency %g outside the ~0.7-ceiling band", effOut)
	}
	// The failure burst is inside the outage window.
	maxFail, maxAt := 0, 0.0
	for i, f := range f10.Failed {
		if f > maxFail {
			maxFail = f
			maxAt = f10.Times[i]
		}
	}
	if maxAt < cfg.WANOutageStart-3600 || maxAt > cfg.WANOutageEnd+3600 {
		t.Errorf("failure burst at %g h, outage at %g-%g h",
			maxAt/3600, cfg.WANOutageStart/3600, cfg.WANOutageEnd/3600)
	}

	// Figure 9: Lobster tops the federation dashboard.
	top := Figure9(res, 16*3600, 20*3600)
	if len(top) != 10 {
		t.Fatalf("dashboard rows = %d", len(top))
	}
	if top[0].Consumer != "ND Lobster (T3_US_NotreDame)" {
		t.Errorf("top consumer = %s", top[0].Consumer)
	}
	if top[0].Bytes <= top[1].Bytes {
		t.Error("Lobster not strictly the biggest consumer")
	}
}

func TestBigRunSimulation(t *testing.T) {
	cfg := SimRunConfig(0.05)
	res, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f11, err := Figure11(res, 1800)
	if err != nil {
		t.Fatal(err)
	}
	// Cold-cache ramp: setup peaks high (hundreds of minutes at full squid
	// saturation) and then declines by the end of the run.
	peakAt, peak := f11.PeakSetup()
	if peak < 3600 {
		t.Errorf("setup peak %g s; expected a cold-ramp of hours", peak)
	}
	last := f11.SetupMean[len(f11.SetupMean)-1]
	if !(last < peak/2) {
		t.Errorf("setup did not decline after the cold ramp: peak %g, final %g", peak, last)
	}
	if peakAt >= res.Config.Duration {
		t.Error("peak outside the run")
	}
	// Squid-timeout failures (code 20) occur during the ramp, and transient
	// misc failures (code 50) trickle throughout.
	saw20, saw50 := false, false
	var first20, last20 float64 = math.Inf(1), 0
	for i, m := range f11.FailureCodes {
		if m[ExitSetupTimeout] > 0 {
			saw20 = true
			tt := f11.Times[i]
			if tt < first20 {
				first20 = tt
			}
			if tt > last20 {
				last20 = tt
			}
		}
		if m[ExitMisc] > 0 {
			saw50 = true
		}
	}
	if !saw20 {
		t.Error("no squid-timeout failures")
	}
	if !saw50 {
		t.Error("no transient misc failures")
	}
	if saw20 && last20 >= res.Config.Duration-1800 {
		t.Error("squid failures persisted to the end; they should stop once caches fill")
	}
	// Stage-out shows overload during the heavy completion phase: the max
	// per-bin stage-out time well above the unloaded transfer time.
	maxOut := 0.0
	for _, s := range f11.StageOut {
		if s > maxOut {
			maxOut = s
		}
	}
	if maxOut < 30 {
		t.Errorf("no chirp overload periods: max stage-out %g s", maxOut)
	}
	if len(f11.SortedCodes()) < 2 {
		t.Errorf("failure codes seen: %v", f11.SortedCodes())
	}
}

func TestBigRunDeterministic(t *testing.T) {
	cfg := DataRunConfig(0.02)
	cfg.Duration = 6 * 3600
	a, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunBig(cfg)
	if a.TasksDone != b.TasksDone || a.TasksFailed != b.TasksFailed ||
		a.Evictions != b.Evictions || a.WANBytes != b.WANBytes {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

func TestBigRunValidation(t *testing.T) {
	if _, err := RunBig(BigRunConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := DataRunConfig(0.01)
	cfg.TaskCPU = nil
	if _, err := RunBig(cfg); err == nil {
		t.Error("missing TaskCPU accepted")
	}
}

func TestFig10CompletionConservation(t *testing.T) {
	cfg := DataRunConfig(0.02)
	cfg.Duration = 8 * 3600
	cfg.WANOutageStart, cfg.WANOutageEnd = 3*3600, 4*3600
	res, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Figure10(res, 1800)
	if err != nil {
		t.Fatal(err)
	}
	var completed, failed int
	for i := range d.Times {
		completed += d.Completed[i]
		failed += d.Failed[i]
	}
	if completed != res.TasksDone {
		t.Errorf("binned completions %d != run total %d", completed, res.TasksDone)
	}
	// Binned failures exclude preemptions; the run total includes them.
	if failed > res.TasksFailed {
		t.Errorf("binned failures %d exceed run total %d", failed, res.TasksFailed)
	}
	// WAN accounting: bytes moved ≈ done+wan-failed transfers × input size.
	if res.WANBytes < float64(res.TasksDone)*cfg.InputBytes {
		t.Errorf("WAN bytes %g below the completed-task floor %g",
			res.WANBytes, float64(res.TasksDone)*cfg.InputBytes)
	}
}

func TestFig9WindowSelectsSubset(t *testing.T) {
	cfg := DataRunConfig(0.02)
	cfg.Duration = 8 * 3600
	cfg.WANOutageStart, cfg.WANOutageEnd = -2, -1 // no outage
	res, err := RunBig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := Figure9(res, 0, cfg.Duration)
	window := Figure9(res, 2*3600, 4*3600)
	if window[0].Bytes >= full[0].Bytes {
		t.Errorf("window volume %d not below full-run volume %d",
			window[0].Bytes, full[0].Bytes)
	}
	if window[0].Consumer != full[0].Consumer {
		t.Error("top consumer changed with window")
	}
}

func TestAdaptiveBeatsStaticUnderShift(t *testing.T) {
	results, err := CompareAdaptive(DefaultPhaseShiftConfig(), 18)
	if err != nil {
		t.Fatal(err)
	}
	static, adaptive := results[0], results[1]
	if static.Sizer != "static-18" || adaptive.Sizer != "rate-adaptive" {
		t.Fatalf("order: %s, %s", static.Sizer, adaptive.Sizer)
	}
	if !(adaptive.Efficiency > static.Efficiency+0.05) {
		t.Errorf("adaptive %g not clearly above static %g",
			adaptive.Efficiency, static.Efficiency)
	}
	if !(adaptive.Evictions < static.Evictions) {
		t.Errorf("adaptive evictions %d not below static %d",
			adaptive.Evictions, static.Evictions)
	}
	// The controller actually shrank the size after the hostile shift.
	if adaptive.FinalSize >= 18 {
		t.Errorf("final size %d did not shrink", adaptive.FinalSize)
	}
}

func TestRateSizerGrowsWhenCalm(t *testing.T) {
	s := NewRateSizer(6, 1, 120, 1200, 600)
	for i := 0; i < 1000; i++ {
		s.Observe(s.Next(), false)
	}
	if s.Next() <= 6 {
		t.Errorf("size %d did not grow without evictions", s.Next())
	}
}

func TestRateSizerBounds(t *testing.T) {
	s := NewRateSizer(50, 10, 60, 1200, 600)
	// Persistent heavy eviction pressure drives toward the floor, never past.
	for i := 0; i < 5000; i++ {
		s.Observe(s.Next(), true)
	}
	if got := s.Next(); got < 10 || got > 60 {
		t.Errorf("size %d escaped bounds [10,60]", got)
	}
	if s.Next() != 10 {
		t.Errorf("size %d did not reach the floor under constant eviction", s.Next())
	}
	// Construction clamps bad inputs.
	s2 := NewRateSizer(0, 0, -5, 1200, 600)
	if s2.Next() < 1 {
		t.Errorf("unclamped sizer: %d", s2.Next())
	}
}

func TestSimulateAdaptiveValidation(t *testing.T) {
	if _, err := SimulateAdaptive(PhaseShiftConfig{}, &StaticSizer{Size: 5}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := DefaultPhaseShiftConfig()
	cfg.Phase2 = nil
	if _, err := SimulateAdaptive(cfg, &StaticSizer{Size: 5}); err == nil {
		t.Error("missing phase accepted")
	}
}
