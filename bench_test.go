package lobster

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section. Each benchmark prints the regenerated rows/series on
// its first iteration (run with -bench and -v or watch stdout) and reports
// the headline quantity as a benchmark metric, so regressions in the
// reproduced *shape* show up as metric shifts.
//
//	go test -bench=Fig -benchmem
//
// The at-scale runs default to a reduced scale so the full suite stays
// fast; cmd/lobster-bench runs the same generators at full paper scale.

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lobster/internal/cluster"
	"lobster/internal/core"
	"lobster/internal/cvmfs"
	"lobster/internal/dbs"
	"lobster/internal/parrot"
	"lobster/internal/sim"
	"lobster/internal/stats"
	"lobster/internal/tabulate"
	"lobster/internal/trace"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
)

var printOnce sync.Map

// printFirst prints output once per benchmark name.
func printFirst(b *testing.B, out string) {
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
		fmt.Printf("\n=== %s ===\n%s\n", b.Name(), out)
	}
}

// BenchmarkFig2EvictionProbability regenerates Figure 2: worker eviction
// probability as a function of availability time with binomial errors.
func BenchmarkFig2EvictionProbability(b *testing.B) {
	var curve []cluster.CurvePoint
	for i := 0; i < b.N; i++ {
		trace, err := cluster.GenerateTrace(cluster.DefaultTraceConfig(), stats.NewRand(2))
		if err != nil {
			b.Fatal(err)
		}
		curve, err = cluster.EvictionCurve(trace, 0, 24*3600, 24)
		if err != nil {
			b.Fatal(err)
		}
	}
	tb := tabulate.NewTable("Figure 2: eviction probability vs availability time",
		"availability", "P(evict)", "+-", "sessions")
	for _, p := range curve {
		tb.Row(tabulate.Duration(p.T), p.P, p.Err, p.N)
	}
	printFirst(b, tb.Render())
	b.ReportMetric(curve[0].P, "P(evict|first-hour)")
}

// BenchmarkFig3EfficiencyByTaskLength regenerates Figure 3: efficiency vs
// task length for the constant, observed, and no-eviction scenarios.
func BenchmarkFig3EfficiencyByTaskLength(b *testing.B) {
	cfg := sim.DefaultTaskSizeConfig()
	cfg.Tasklets = 20000
	cfg.Workers = 1600
	trace, err := cluster.GenerateTrace(cluster.DefaultTraceConfig(), stats.NewRand(2))
	if err != nil {
		b.Fatal(err)
	}
	surv, err := cluster.SurvivalDistribution(trace)
	if err != nil {
		b.Fatal(err)
	}
	var results []sim.Fig3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err = sim.Figure3(cfg, surv, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	tb := tabulate.NewTable("Figure 3: efficiency by task length (scenario rows, 1..10 h columns)",
		"scenario", "1h", "2h", "3h", "4h", "5h", "6h", "7h", "8h", "9h", "10h")
	var peakObserved float64
	for _, r := range results {
		row := []any{r.Scenario}
		for _, p := range r.Points {
			row = append(row, fmt.Sprintf("%.2f", p.Efficiency))
		}
		tb.Row(row...)
		if r.Scenario == "observed" {
			_, peakObserved = sim.PeakEfficiency(r.Points)
		}
	}
	printFirst(b, tb.Render())
	b.ReportMetric(peakObserved, "peak-eff-observed")
}

// BenchmarkFig4DataAccessMethods regenerates Figure 4: staged versus
// streamed data access, runtime split into processing and overhead.
func BenchmarkFig4DataAccessMethods(b *testing.B) {
	var results []*sim.AccessResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = sim.Figure4(sim.DefaultAccessConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	tb := tabulate.NewTable("Figure 4: data access methods compared",
		"mode", "runtime", "processing", "overhead", "cpu-util", "makespan")
	for _, r := range results {
		tb.Row(r.Mode, tabulate.Duration(r.MeanRuntime), tabulate.Duration(r.MeanProcessing),
			tabulate.Duration(r.MeanOverhead), fmt.Sprintf("%.2f", r.CPUUtilization),
			tabulate.Duration(r.Makespan))
	}
	printFirst(b, tb.Render())
	b.ReportMetric(results[0].MeanRuntime/results[1].MeanRuntime, "stage/stream-runtime")
}

// BenchmarkFig5ProxyCacheScalability regenerates Figure 5: mean task
// overhead versus tasks sharing one proxy, cold and hot caches.
func BenchmarkFig5ProxyCacheScalability(b *testing.B) {
	var res *sim.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sim.Figure5(sim.DefaultProxyConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	tb := tabulate.NewTable("Figure 5: proxy cache scalability",
		"tasks/proxy", "cold overhead", "hot overhead")
	for i := range res.Cold {
		tb.Row(res.Cold[i].Tasks, tabulate.Duration(res.Cold[i].MeanOverhead),
			tabulate.Duration(res.Hot[i].MeanOverhead))
	}
	printFirst(b, tb.Render())
	b.ReportMetric(float64(sim.Knee(res.Cold, 0.1)), "cold-knee-tasks")
}

// BenchmarkFig6CacheModes measures the real cache implementations of
// Figure 6: concurrent Parrot instances populating a node cache under the
// five sharing configurations (three distinct mechanisms: private-locked,
// per-instance, alien).
func BenchmarkFig6CacheModes(b *testing.B) {
	repo := cvmfs.NewRepository("cms.cern.ch")
	if _, err := cvmfs.PublishRelease(repo, cvmfs.TestRelease("CMSSW_7_4_0"), stats.NewRand(1)); err != nil {
		b.Fatal(err)
	}
	origin := cvmfs.NewServer(repo)
	ts := httptest.NewServer(origin)
	defer ts.Close()

	type modeResult struct {
		label   string
		fetched int64
		waitNS  int64
	}
	var results []modeResult
	run := func(label string, mode parrot.Mode, instances int) modeResult {
		cache, err := parrot.NewCache(b.TempDir(), mode)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		out := modeResult{label: label}
		for i := 0; i < instances; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				inst, err := cache.Instance(fmt.Sprint(i))
				if err != nil {
					return
				}
				m, err := parrot.NewMount(ts.URL, "cms.cern.ch", inst, nil)
				if err != nil {
					return
				}
				if _, err := m.WarmRelease("/CMSSW_7_4_0"); err != nil {
					return
				}
				st := inst.Stats()
				mu.Lock()
				out.fetched += st.BytesFetched
				out.waitNS += int64(st.LockWait)
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		return out
	}

	const instances = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = results[:0]
		results = append(results,
			run("(a) single locked cache", parrot.ModePrivateLocked, instances),
			run("(b/c) per-instance caches", parrot.ModePerInstance, instances),
			run("(d/e) alien shared cache", parrot.ModeAlien, instances))
	}
	b.StopTimer()
	tb := tabulate.NewTable(
		fmt.Sprintf("Figure 6: cache sharing configurations (%d concurrent instances)", instances),
		"configuration", "bytes fetched", "lock wait")
	for _, r := range results {
		tb.Row(r.label, tabulate.Bytes(float64(r.fetched)),
			tabulate.Duration(float64(r.waitNS)/1e9))
	}
	printFirst(b, tb.Render())
	if len(results) == 3 && results[2].fetched > 0 {
		b.ReportMetric(float64(results[1].fetched)/float64(results[2].fetched), "per-instance/alien-bytes")
	}
}

// BenchmarkFig7MergingModes regenerates Figure 7: analysis and merge task
// completion under sequential, Hadoop, and interleaved merging.
func BenchmarkFig7MergingModes(b *testing.B) {
	var results []*sim.MergeTimeline
	var err error
	for i := 0; i < b.N; i++ {
		results, err = sim.Figure7(sim.DefaultMergeSimConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	tb := tabulate.NewTable("Figure 7: merging modes compared",
		"mode", "last analysis", "last merge (bar)", "merged files", "worker time")
	for _, tl := range results {
		tb.Row(tl.Mode, tabulate.Duration(tl.LastAnalysis), tabulate.Duration(tl.LastMerge),
			tl.MergedFiles, tabulate.Duration(tl.WorkerSecondsUsed))
	}
	printFirst(b, tb.Render())
	b.ReportMetric(results[0].LastMerge-results[2].LastMerge, "seq-minus-interleaved-s")
}

// dataRunOnce caches the scaled data-processing run shared by the Figure
// 8/9/10 benchmarks (the run itself is the expensive part).
var dataRunOnce struct {
	sync.Once
	res *sim.BigRunResult
	err error
}

func dataRun() (*sim.BigRunResult, error) {
	dataRunOnce.Do(func() {
		dataRunOnce.res, dataRunOnce.err = sim.RunBig(sim.DataRunConfig(0.1))
	})
	return dataRunOnce.res, dataRunOnce.err
}

// BenchmarkFig8RuntimeBreakdown regenerates the Figure 8 table: data
// processing runtime decomposed into CPU, I/O, failed, and WQ transfer time.
func BenchmarkFig8RuntimeBreakdown(b *testing.B) {
	res, err := dataRun()
	if err != nil {
		b.Fatal(err)
	}
	var rows []struct {
		Phase    string
		Hours    float64
		Fraction float64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, r := range sim.Figure8(res) {
			rows = append(rows, struct {
				Phase    string
				Hours    float64
				Fraction float64
			}{r.Phase, r.Hours, r.Fraction})
		}
	}
	b.StopTimer()
	tb := tabulate.NewTable("Figure 8: data processing runtime (paper: 53.4/20.4/14.0/6.9/2.8 %)",
		"Task Phase", "Time (h)", "Fraction (%)")
	var cpuFrac float64
	for _, r := range rows {
		tb.Row(r.Phase, fmt.Sprintf("%.0f", r.Hours), fmt.Sprintf("%.1f", r.Fraction*100))
		if r.Phase == "Task CPU Time" {
			cpuFrac = r.Fraction
		}
	}
	printFirst(b, tb.Render())
	b.ReportMetric(cpuFrac*100, "cpu-%")
}

// BenchmarkFig9XrootdVolume regenerates Figure 9: XrootD volume of the top
// ten consumers during a four-hour window, with Lobster on top.
func BenchmarkFig9XrootdVolume(b *testing.B) {
	res, err := dataRun()
	if err != nil {
		b.Fatal(err)
	}
	var top []struct {
		Consumer string
		Bytes    int64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top = top[:0]
		for _, cv := range sim.Figure9(res, 16*3600, 20*3600) {
			top = append(top, struct {
				Consumer string
				Bytes    int64
			}{cv.Consumer, cv.Bytes})
		}
	}
	b.StopTimer()
	labels := make([]string, len(top))
	values := make([]float64, len(top))
	for i, cv := range top {
		labels[i] = cv.Consumer
		values[i] = float64(cv.Bytes)
	}
	printFirst(b, "Figure 9: XrootD data volume, top consumers (4 h window)\n"+
		tabulate.Bars(labels, values, 40))
	if len(top) > 1 && top[1].Bytes > 0 {
		b.ReportMetric(float64(top[0].Bytes)/float64(top[1].Bytes), "lobster/next-volume")
	}
}

// BenchmarkFig10DataProcessingTimeline regenerates Figure 10: the 10k-core
// data-processing run timeline (running / completed+failed / efficiency).
func BenchmarkFig10DataProcessingTimeline(b *testing.B) {
	res, err := dataRun()
	if err != nil {
		b.Fatal(err)
	}
	var d *sim.Fig10Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err = sim.Figure10(res, 3600)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tb := tabulate.NewTable("Figure 10: data processing timeline (1 h bins, 0.1 scale = 1k cores)",
		"t", "running", "completed", "failed", "cpu/wall")
	for i := 0; i < len(d.Times); i += 2 {
		tb.Row(tabulate.Duration(d.Times[i]), fmt.Sprintf("%.0f", d.Running[i]),
			d.Completed[i], d.Failed[i], fmt.Sprintf("%.2f", d.Eff[i]))
	}
	printFirst(b, tb.Render())
	_, effIn, effOut := d.OutageWindowStats(res.Config.WANOutageStart, res.Config.WANOutageEnd)
	b.ReportMetric(effOut, "steady-efficiency")
	b.ReportMetric(effOut-effIn, "outage-dip")
}

// BenchmarkFig11SimulationTimeline regenerates Figure 11: the 20k-core
// simulation run (running / setup time / stage-out / failure codes).
func BenchmarkFig11SimulationTimeline(b *testing.B) {
	var res *sim.BigRunResult
	var d *sim.Fig11Data
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sim.RunBig(sim.SimRunConfig(0.1))
		if err != nil {
			b.Fatal(err)
		}
		d, err = sim.Figure11(res, 1800)
		if err != nil {
			b.Fatal(err)
		}
	}
	tb := tabulate.NewTable("Figure 11: simulation run timeline (30 min bins, 0.1 scale = 2k cores)",
		"t", "running", "setup", "stage-out", "failures(code:count)")
	for i := range d.Times {
		codeStr := ""
		for _, c := range d.SortedCodes() {
			if n := d.FailureCodes[i][c]; n > 0 {
				codeStr += fmt.Sprintf("%d:%d ", c, n)
			}
		}
		tb.Row(tabulate.Duration(d.Times[i]), fmt.Sprintf("%.0f", d.Running[i]),
			tabulate.Duration(d.SetupMean[i]), tabulate.Duration(d.StageOut[i]), codeStr)
	}
	printFirst(b, tb.Render())
	_, peak := d.PeakSetup()
	b.ReportMetric(peak/60, "peak-setup-min")
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationAdaptiveTaskSizing compares static task sizing against
// the rate-adaptive controller under a mid-run eviction regime shift (the
// paper's §8 future-work item).
func BenchmarkAblationAdaptiveTaskSizing(b *testing.B) {
	var results []*sim.AdaptiveResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = sim.CompareAdaptive(sim.DefaultPhaseShiftConfig(), 18)
		if err != nil {
			b.Fatal(err)
		}
	}
	tb := tabulate.NewTable("Ablation: task sizing under an eviction regime shift",
		"sizer", "efficiency", "evictions", "mean size", "final size")
	for _, r := range results {
		tb.Row(r.Sizer, fmt.Sprintf("%.3f", r.Efficiency), r.Evictions,
			fmt.Sprintf("%.1f", r.MeanSize), r.FinalSize)
	}
	printFirst(b, tb.Render())
	b.ReportMetric(results[1].Efficiency-results[0].Efficiency, "adaptive-gain")
}

// BenchmarkAblationChirpServers sweeps the storage-element capacity (the
// paper's remedy for periodic stage-out overload: "deploying more cache and
// Chirp resources") and measures the worst per-bin stage-out time.
func BenchmarkAblationChirpServers(b *testing.B) {
	type point struct {
		servers     int
		maxStageOut float64
	}
	grid := []int{1, 2, 4}
	points := make([]point, len(grid))
	for i := 0; i < b.N; i++ {
		// Each grid point is an independent model run with its own Sim and
		// Rand; run the sweep concurrently, placing results by index.
		var wg sync.WaitGroup
		errs := make([]error, len(grid))
		for gi, servers := range grid {
			wg.Add(1)
			go func(gi, servers int) {
				defer wg.Done()
				cfg := sim.SimRunConfig(0.05)
				cfg.ChirpBandwidth *= float64(servers)
				cfg.ChirpSlots *= servers
				res, err := sim.RunBig(cfg)
				if err != nil {
					errs[gi] = err
					return
				}
				d, err := sim.Figure11(res, 1800)
				if err != nil {
					errs[gi] = err
					return
				}
				maxOut := 0.0
				for _, s := range d.StageOut {
					if s > maxOut {
						maxOut = s
					}
				}
				points[gi] = point{servers, maxOut}
			}(gi, servers)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	tb := tabulate.NewTable("Ablation: chirp servers vs worst stage-out time",
		"servers", "max stage-out")
	for _, p := range points {
		tb.Row(p.servers, tabulate.Duration(p.maxStageOut))
	}
	printFirst(b, tb.Render())
}

// BenchmarkAblationProxyCount sweeps the number of squid proxies serving
// the simulation run's cold start (the paper's remedy for Figure 11's
// setup-time peak).
func BenchmarkAblationProxyCount(b *testing.B) {
	type point struct {
		proxies int
		peakMin float64
		done    int
	}
	grid := []int{1, 2, 4}
	points := make([]point, len(grid))
	for i := 0; i < b.N; i++ {
		// Independent model runs: sweep the grid concurrently (see the chirp
		// ablation above for the pattern).
		var wg sync.WaitGroup
		errs := make([]error, len(grid))
		for gi, n := range grid {
			wg.Add(1)
			go func(gi, n int) {
				defer wg.Done()
				cfg := sim.SimRunConfig(0.05)
				cfg.ProxyBandwidth *= float64(n)
				res, err := sim.RunBig(cfg)
				if err != nil {
					errs[gi] = err
					return
				}
				d, err := sim.Figure11(res, 1800)
				if err != nil {
					errs[gi] = err
					return
				}
				_, peak := d.PeakSetup()
				points[gi] = point{n, peak / 60, res.TasksDone}
			}(gi, n)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	tb := tabulate.NewTable("Ablation: squid proxies vs cold-start setup peak",
		"proxies", "peak setup (min)", "tasks done")
	for _, p := range points {
		tb.Row(p.proxies, fmt.Sprintf("%.0f", p.peakMin), p.done)
	}
	printFirst(b, tb.Render())
}

// BenchmarkAblationTaskBuffer sweeps Lobster's submitted-task buffer depth
// (the paper fixes 400) on a small real-plane workflow.
func BenchmarkAblationTaskBuffer(b *testing.B) {
	reg := wq.Registry{
		"analysis": func(ctx *wq.ExecContext) error {
			var rep wrapper.Report
			wrapper.Run(&rep, new(wrapper.StepContext), nil, nil, trace.Context{}, wrapper.Step{Segment: wrapper.SegExecute})
			ctx.SetReport(&rep)
			return nil
		},
	}
	runBuffer := func(depth int) time.Duration {
		master, err := wq.NewMaster("127.0.0.1:0", nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer master.Close()
		w, err := wq.NewWorker(master.Addr(), "w0", 4, b.TempDir(), reg, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		svc := core.Services{Master: master, DBS: dbs.NewService()}
		ds, err := dbs.Generate(dbs.GenConfig{
			Name: "/Bench/Buffer/AOD", Files: 32, EventsPerFile: 4, LumisPerFile: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		svc.DBS.Register(ds)
		l, err := core.New(core.Config{
			Name: fmt.Sprintf("buf%d", depth), Kind: core.KindAnalysis,
			Dataset: ds.Name, TaskBuffer: depth,
		}, svc)
		if err != nil {
			b.Fatal(err)
		}
		l.SetResultTimeout(30 * time.Second)
		start := time.Now()
		rep, err := l.Run()
		if err != nil || !rep.Succeeded() {
			b.Fatalf("run failed: %v %+v", err, rep)
		}
		return time.Since(start)
	}
	type point struct {
		depth   int
		elapsed time.Duration
	}
	var points []point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = points[:0]
		for _, d := range []int{1, 8, 400} {
			points = append(points, point{d, runBuffer(d)})
		}
	}
	b.StopTimer()
	tb := tabulate.NewTable("Ablation: task buffer depth (32 tasks, one 4-core worker)",
		"buffer", "makespan")
	for _, p := range points {
		tb.Row(p.depth, p.elapsed.Round(time.Millisecond).String())
	}
	printFirst(b, tb.Render())
}
