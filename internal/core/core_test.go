package core

import (
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"lobster/internal/dbs"
	"lobster/internal/monitor"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
)

func testDataset(files, lumisPerFile, eventsPerFile int) *dbs.Dataset {
	d, err := dbs.Generate(dbs.GenConfig{
		Name: "/Test/Core/AOD", Files: files, EventsPerFile: eventsPerFile,
		LumisPerFile: lumisPerFile, EventBytes: 256,
	}, nil)
	if err != nil {
		panic(err)
	}
	return d
}

func analysisServices(t *testing.T, ds *dbs.Dataset) Services {
	t.Helper()
	svc := Services{DBS: dbs.NewService()}
	if err := svc.DBS.Register(ds); err != nil {
		t.Fatal(err)
	}
	m, err := wq.NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	svc.Master = m
	return svc
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Name: "wf", Kind: KindAnalysis, Dataset: "/d"}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TaskBuffer != 400 {
		t.Errorf("task buffer = %d, want the paper's 400", cfg.TaskBuffer)
	}
	if cfg.AccessMode != AccessStream {
		t.Errorf("default access mode = %s", cfg.AccessMode)
	}
	if cfg.MergeStartFraction != 0.10 {
		t.Errorf("merge start fraction = %g", cfg.MergeStartFraction)
	}
	if cfg.TaskletsPerTask != 1 || cfg.MaxTaskRetries != 3 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Name: "x"},
		{Name: "x", Kind: KindAnalysis},
		{Name: "x", Kind: KindSimulation},
		{Name: "x", Kind: "weird"},
		{Name: "x", Kind: KindAnalysis, Dataset: "/d", AccessMode: "teleport"},
		{Name: "x", Kind: KindAnalysis, Dataset: "/d", MergeMode: "blend"},
		{Name: "x", Kind: KindAnalysis, Dataset: "/d", MergeMode: MergeSequential},
	}
	for i, c := range bad {
		if _, err := c.withDefaults(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestPlanAnalysisTasklets(t *testing.T) {
	ds := testDataset(3, 4, 20) // 3 files × 4 lumis, 20 events each
	svc := Services{DBS: dbs.NewService()}
	svc.DBS.Register(ds)
	cfg, _ := Config{Name: "wf", Kind: KindAnalysis, Dataset: ds.Name}.withDefaults()
	tasklets, err := planTasklets(&cfg, &svc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasklets) != 12 {
		t.Fatalf("tasklets = %d, want 12", len(tasklets))
	}
	// Events per file divide across lumis: 4 lumis × 5 events.
	total := 0
	for _, tl := range tasklets {
		total += tl.NumEvents
		if tl.LFN == "" {
			t.Fatal("tasklet without LFN")
		}
	}
	if total != 60 {
		t.Errorf("total events = %d, want 60", total)
	}
	// Tasklets within a file cover disjoint contiguous ranges.
	byLFN := map[string][]Tasklet{}
	for _, tl := range tasklets {
		byLFN[tl.LFN] = append(byLFN[tl.LFN], tl)
	}
	for lfn, ts := range byLFN {
		next := 0
		for _, tl := range ts {
			if tl.SkipEvents != next {
				t.Errorf("%s: tasklet skip %d, want %d", lfn, tl.SkipEvents, next)
			}
			next += tl.NumEvents
		}
	}
}

func TestPlanAnalysisWithLumiMask(t *testing.T) {
	ds := testDataset(2, 4, 20)
	svc := Services{DBS: dbs.NewService()}
	svc.DBS.Register(ds)
	// Select only the first two lumis overall.
	firstRun := ds.Files[0].Lumis[0].Run
	mask := &dbs.LumiMask{Ranges: map[int][][2]int{
		firstRun: {{ds.Files[0].Lumis[0].Lumi, ds.Files[0].Lumis[1].Lumi}},
	}}
	cfg, _ := Config{Name: "wf", Kind: KindAnalysis, Dataset: ds.Name, LumiMask: mask}.withDefaults()
	tasklets, err := planTasklets(&cfg, &svc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasklets) != 2 {
		t.Fatalf("masked tasklets = %d, want 2", len(tasklets))
	}
}

func TestPlanSimulationTasklets(t *testing.T) {
	cfg, _ := Config{Name: "wf", Kind: KindSimulation, TotalEvents: 1050, EventsPerTasklet: 100}.withDefaults()
	tasklets, err := planTasklets(&cfg, &Services{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasklets) != 11 {
		t.Fatalf("tasklets = %d, want 11", len(tasklets))
	}
	total := 0
	seeds := map[int]bool{}
	for _, tl := range tasklets {
		total += tl.NumEvents
		if seeds[tl.Seed] {
			t.Fatal("duplicate seed")
		}
		seeds[tl.Seed] = true
	}
	if total != 1050 {
		t.Errorf("total events = %d", total)
	}
	if tasklets[10].NumEvents != 50 {
		t.Errorf("last tasklet = %d events", tasklets[10].NumEvents)
	}
}

func TestGroupTaskletsRespectsFileBoundaries(t *testing.T) {
	ds := testDataset(2, 5, 20) // 2 files × 5 lumis
	svc := Services{DBS: dbs.NewService()}
	svc.DBS.Register(ds)
	cfg, _ := Config{Name: "wf", Kind: KindAnalysis, Dataset: ds.Name, TaskletsPerTask: 3}.withDefaults()
	tasklets, _ := planTasklets(&cfg, &svc)
	groups := groupTasklets(&cfg, tasklets)
	// Per file: 5 lumis at 3/task → groups of 3,2. Two files → 4 groups.
	if len(groups) != 4 {
		t.Fatalf("groups = %d: %v", len(groups), groups)
	}
	for _, g := range groups {
		lfn := tasklets[g[0]].LFN
		for _, id := range g {
			if tasklets[id].LFN != lfn {
				t.Fatal("group spans files")
			}
		}
	}
}

func TestGroupTaskletsCoversAllExactlyOnce(t *testing.T) {
	check := func(nFiles, nLumis, k uint8) bool {
		files := int(nFiles%5) + 1
		lumis := int(nLumis%7) + 1
		size := int(k%6) + 1
		ds := testDataset(files, lumis, lumis*2)
		svc := Services{DBS: dbs.NewService()}
		if err := svc.DBS.Register(ds); err != nil {
			return false
		}
		cfg, _ := Config{Name: "wf", Kind: KindAnalysis, Dataset: ds.Name, TaskletsPerTask: size}.withDefaults()
		tasklets, err := planTasklets(&cfg, &svc)
		if err != nil {
			return false
		}
		groups := groupTasklets(&cfg, tasklets)
		seen := make(map[int]bool)
		for _, g := range groups {
			if len(g) > size {
				return false
			}
			for _, id := range g {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == len(tasklets)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTaskAnalysisArgs(t *testing.T) {
	ds := testDataset(1, 4, 20)
	svc := Services{DBS: dbs.NewService()}
	svc.DBS.Register(ds)
	cfg, _ := Config{Name: "wf", Kind: KindAnalysis, Dataset: ds.Name,
		TaskletsPerTask: 2, EventSize: 256, AccessMode: AccessStage}.withDefaults()
	tasklets, _ := planTasklets(&cfg, &svc)
	groups := groupTasklets(&cfg, tasklets)
	task, err := buildTask(&cfg, tasklets, groups[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if task.Func != "analysis" || task.Tag != "analysis" {
		t.Errorf("task func/tag: %s/%s", task.Func, task.Tag)
	}
	if task.Args["lfn"] != ds.Files[0].LFN {
		t.Errorf("lfn = %s", task.Args["lfn"])
	}
	if task.Args["mode"] != "stage" {
		t.Errorf("mode = %s", task.Args["mode"])
	}
	// Second group covers lumis 2-3 → events 10-19.
	if task.Args["skip_events"] != "10" || task.Args["max_events"] != "10" {
		t.Errorf("range: skip=%s max=%s", task.Args["skip_events"], task.Args["max_events"])
	}
	ids, err := parseTaskletIDs(task)
	if err != nil || len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Errorf("tasklet ids = %v, %v", ids, err)
	}
	if task.Outputs[0] != "report.json" {
		t.Errorf("outputs = %v", task.Outputs)
	}
}

func TestBuildTaskSimulationArgs(t *testing.T) {
	cfg, _ := Config{Name: "sim", Kind: KindSimulation, TotalEvents: 300,
		EventsPerTasklet: 100, TaskletsPerTask: 2, PileupPath: "/pu/minbias"}.withDefaults()
	tasklets, _ := planTasklets(&cfg, &Services{})
	groups := groupTasklets(&cfg, tasklets)
	task, err := buildTask(&cfg, tasklets, groups[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if task.Func != "simulation" {
		t.Errorf("func = %s", task.Func)
	}
	if task.Args["events"] != "200" {
		t.Errorf("events = %s", task.Args["events"])
	}
	if task.Args["pileup"] != "/pu/minbias" {
		t.Errorf("pileup = %s", task.Args["pileup"])
	}
	if task.Args["seed"] != strconv.Itoa(tasklets[0].Seed) {
		t.Errorf("seed = %s", task.Args["seed"])
	}
}

func TestGroupOutputsBySize(t *testing.T) {
	outs := []outputFile{
		{Path: "/a", Bytes: 40}, {Path: "/b", Bytes: 40},
		{Path: "/c", Bytes: 40}, {Path: "/d", Bytes: 10},
	}
	groups, rest := groupOutputsBySize(outs, 75, true)
	if len(groups) != 1 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 {
		t.Errorf("group size = %d", len(groups[0]))
	}
	// requireFull keeps the under-target remainder back.
	if len(rest) != 2 {
		t.Errorf("rest = %v", rest)
	}
	// End-of-run flush includes the remainder.
	groups, rest = groupOutputsBySize(outs, 75, false)
	if len(groups) != 2 || len(rest) != 0 {
		t.Errorf("flush: groups=%v rest=%v", groups, rest)
	}
	// All inputs preserved exactly once.
	seen := map[string]bool{}
	for _, g := range groups {
		for _, o := range g {
			if seen[o.Path] {
				t.Fatal("duplicate output in groups")
			}
			seen[o.Path] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("coverage = %d", len(seen))
	}
}

func TestNewValidatesServices(t *testing.T) {
	ds := testDataset(1, 2, 4)
	if _, err := New(Config{Name: "x", Kind: KindAnalysis, Dataset: ds.Name}, Services{}); err == nil {
		t.Error("missing master accepted")
	}
	m, _ := wq.NewMaster("127.0.0.1:0")
	defer m.Close()
	if _, err := New(Config{Name: "x", Kind: KindAnalysis, Dataset: ds.Name}, Services{Master: m}); err == nil {
		t.Error("analysis without DBS accepted")
	}
	if _, err := New(Config{Name: "x", Kind: KindSimulation, TotalEvents: 10,
		MergeMode: MergeHadoop, MergeTargetBytes: 100}, Services{Master: m}); err == nil {
		t.Error("hadoop merge without cluster accepted")
	}
}

// TestTaskRecordsShareMetrics: the records of same-sized tasks carry one
// Metrics map between them, a task of another size gets its own, and no
// record's values change when a later one differs.
func TestTaskRecordsShareMetrics(t *testing.T) {
	l := &Lobster{svc: Services{Monitor: monitor.New()}}
	report := func(events float64) *wrapper.Report {
		return &wrapper.Report{Segments: []wrapper.SegmentReport{{Segment: wrapper.SegExecute,
			Metrics: map[string]float64{"events": events, "bytes_in": 1024 * events, "bytes_out": 8 * events}}}}
	}
	for i, events := range []float64{4, 4, 9, 4} {
		l.recordMonitor(&wq.Result{TaskID: int64(i + 1)}, &inflightTask{kind: "proc"}, report(events))
	}
	recs := l.svc.Monitor.Records()
	for i, events := range []float64{4, 4, 9, 4} {
		if m := recs[i].Metrics; m["events"] != events || m["bytes_in"] != 1024*events || m["bytes_out"] != 8*events {
			t.Errorf("record %d carries %v, want the metrics of a %g-event task", i, m, events)
		}
	}
	same := func(a, b map[string]float64) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	if !same(recs[0].Metrics, recs[1].Metrics) {
		t.Error("two same-sized tasks were given a Metrics map each")
	}
	if same(recs[1].Metrics, recs[2].Metrics) || same(recs[2].Metrics, recs[3].Metrics) {
		t.Error("tasks of different sizes share a Metrics map")
	}
}
