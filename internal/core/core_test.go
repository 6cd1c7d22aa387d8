package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"lobster/internal/dbs"
	"lobster/internal/monitor"
	"lobster/internal/telemetry"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
)

func testDataset(files, lumisPerFile, eventsPerFile int) *dbs.Dataset {
	d, err := dbs.Generate(dbs.GenConfig{
		Name: "/Test/Core/AOD", Files: files, EventsPerFile: eventsPerFile,
		LumisPerFile: lumisPerFile, EventBytes: 256,
	})
	if err != nil {
		panic(err)
	}
	return d
}

// allIDs lists every tasklet's ID, the todo list of a fresh plan.
func allIDs(tasklets []Tasklet) []int {
	ids := make([]int, len(tasklets))
	for i := range ids {
		ids[i] = tasklets[i].ID
	}
	return ids
}

func analysisServices(t *testing.T, ds *dbs.Dataset) Services {
	t.Helper()
	svc := Services{DBS: dbs.NewService()}
	if err := svc.DBS.Register(ds); err != nil {
		t.Fatal(err)
	}
	m, err := wq.NewMaster("127.0.0.1:0", nil, nil, nil)
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
	groups := groupTasklets(&cfg, tasklets, allIDs(tasklets))
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
		groups := groupTasklets(&cfg, tasklets, allIDs(tasklets))
		seen := make(map[int]bool)
		for _, g := range groups {
			if len(g) > size {
				return false
			}
			for i, id := range g {
				if seen[id] {
					return false
				}
				seen[id] = true
				// One contiguous range: its DB row names it by first ID and count.
				if i > 0 && id != g[i-1]+1 {
					return false
				}
			}
		}
		return len(seen) == len(tasklets)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupTaskletsBreaksAtMaskGaps: a task streams one event range, so
// two selected lumis with a masked one between them go to two tasks. One
// task over both used to read from the first lumi's start for the sum of
// their events: it processed the masked lumi and never read the last one.
func TestGroupTaskletsBreaksAtMaskGaps(t *testing.T) {
	ds := testDataset(1, 3, 30) // one file, 3 lumis of 10 events
	svc := Services{DBS: dbs.NewService()}
	svc.DBS.Register(ds)
	ls := ds.Files[0].Lumis
	mask := &dbs.LumiMask{Ranges: map[int][][2]int{
		ls[0].Run: {{ls[0].Lumi, ls[0].Lumi}, {ls[2].Lumi, ls[2].Lumi}},
	}}
	cfg, _ := Config{Name: "wf", Kind: KindAnalysis, Dataset: ds.Name, LumiMask: mask, TaskletsPerTask: 2}.withDefaults()
	tasklets, err := planTasklets(&cfg, &svc)
	if err != nil {
		t.Fatal(err)
	}
	groups := groupTasklets(&cfg, tasklets, allIDs(tasklets))
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want lumis 1 and 3 in a task each", groups)
	}
	for i, want := range [][2]int{{0, 10}, {20, 10}} {
		task, _, err := buildTask(&cfg, tasklets, groups[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if a := taskArgs(t, task); a.SkipEvents != want[0] || a.MaxEvents != want[1] {
			t.Errorf("task %d reads events [%d, +%d), want [%d, +%d)", i, a.SkipEvents, a.MaxEvents, want[0], want[1])
		}
	}
}

// TestGroupTaskletsBreaksAtIDGaps: after a restart the pending tasklets
// have holes where finished ones were; no group spans a hole, so one row
// (first ID, count) names each group exactly.
func TestGroupTaskletsBreaksAtIDGaps(t *testing.T) {
	cfg, _ := Config{Name: "sim", Kind: KindSimulation, TotalEvents: 800, EventsPerTasklet: 100, TaskletsPerTask: 3}.withDefaults()
	tasklets, _ := planTasklets(&cfg, &Services{})
	groups := groupTasklets(&cfg, tasklets, []int{0, 1, 3, 4, 5, 6, 7})
	if want := [][]int{{0, 1}, {3, 4, 5}, {6, 7}}; !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
}

// taskArgs returns the argument record buildTask handed over.
func taskArgs(t *testing.T, task *wq.Task) wrapper.Args {
	t.Helper()
	if task.Args == nil {
		t.Fatal("task has no arguments")
	}
	return *task.Args
}

func TestBuildTaskAnalysisArgs(t *testing.T) {
	ds := testDataset(1, 4, 20)
	svc := Services{DBS: dbs.NewService()}
	svc.DBS.Register(ds)
	cfg, _ := Config{Name: "wf", Kind: KindAnalysis, Dataset: ds.Name,
		TaskletsPerTask: 2, EventSize: 256, AccessMode: AccessStage}.withDefaults()
	tasklets, _ := planTasklets(&cfg, &svc)
	groups := groupTasklets(&cfg, tasklets, allIDs(tasklets))
	task, output, err := buildTask(&cfg, tasklets, groups[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if task.Func != "analysis" || task.Tag != "analysis" {
		t.Errorf("task func/tag: %s/%s", task.Func, task.Tag)
	}
	args := taskArgs(t, task)
	if args.LFN != ds.Files[0].LFN {
		t.Errorf("lfn = %s", args.LFN)
	}
	if args.Mode != "stage" {
		t.Errorf("mode = %s", args.Mode)
	}
	// Second group covers lumis 2-3 → events 10-19.
	if args.SkipEvents != 10 || args.MaxEvents != 10 {
		t.Errorf("range: skip=%d max=%d", args.SkipEvents, args.MaxEvents)
	}
	if args.Output != output {
		t.Errorf("output = %s, buildTask returned %s", args.Output, output)
	}
}

func TestBuildTaskSimulationArgs(t *testing.T) {
	cfg, _ := Config{Name: "sim", Kind: KindSimulation, TotalEvents: 300,
		EventsPerTasklet: 100, TaskletsPerTask: 2, PileupPath: "/pu/minbias"}.withDefaults()
	tasklets, _ := planTasklets(&cfg, &Services{})
	groups := groupTasklets(&cfg, tasklets, allIDs(tasklets))
	task, _, err := buildTask(&cfg, tasklets, groups[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if task.Func != "simulation" {
		t.Errorf("func = %s", task.Func)
	}
	args := taskArgs(t, task)
	if args.Events != 200 {
		t.Errorf("events = %d", args.Events)
	}
	if args.Pileup != "/pu/minbias" {
		t.Errorf("pileup = %s", args.Pileup)
	}
	if args.Seed != tasklets[0].Seed {
		t.Errorf("seed = %d", args.Seed)
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

// TestMergeGroupsFitFrame: many tiny outputs still make merge tasks that
// wq can carry. 20,000 outputs of 8 B under an 8 MiB target once made one
// group whose task encoded past wq's 1 MiB frame, which every worker
// refused. Each group now stops at mergeInputBudget of input paths, so
// every merge task's frame entry is far under 1 MiB, and even a full
// batch of 64 of the largest fits one frame; every output lands in
// exactly one group.
func TestMergeGroupsFitFrame(t *testing.T) {
	cfg := Config{Name: "ttbar-2015D-analysis"}
	cfg.OutputDir = "/store/user/" + cfg.Name
	outs := make([]outputFile, 20000)
	for i := range outs {
		outs[i] = outputFile{Path: fmt.Sprintf("%s/%s_t%d_a0.root", cfg.OutputDir, cfg.Name, i), Bytes: 8}
	}
	groups, rest := groupOutputsBySize(outs, 8<<20, false)
	if len(rest) != 0 {
		t.Fatalf("a flush kept %d outputs back", len(rest))
	}
	seen := map[string]int{}
	largest := 0
	for seq, g := range groups {
		task, _, err := buildMergeTask(&cfg, g, seq)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(task)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, len(data))
		for _, o := range g {
			seen[o.Path]++
		}
	}
	if 64*largest >= 1<<20 {
		t.Errorf("%d groups, the largest task %d B: 64 of them do not fit a 1 MiB frame", len(groups), largest)
	}
	for _, o := range outs {
		if seen[o.Path] != 1 {
			t.Fatalf("%s is in %d groups, want 1", o.Path, seen[o.Path])
		}
	}
	t.Logf("%d groups, the largest task %d B", len(groups), largest)
}

func TestNewValidatesServices(t *testing.T) {
	ds := testDataset(1, 2, 4)
	if _, err := New(Config{Name: "x", Kind: KindAnalysis, Dataset: ds.Name}, Services{}); err == nil {
		t.Error("missing master accepted")
	}
	m, _ := wq.NewMaster("127.0.0.1:0", nil, nil, nil)
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
		return &wrapper.Report{Metrics: wrapper.Metrics{Events: events, BytesIn: 1024 * events, BytesOut: 8 * events}}
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

// TestRecordMonitorFromReport pins the monitoring record the master
// builds from a result and its wrapper report, for an analysis success, a
// simulation success (which has no conditions step) and an analysis task
// failing at each segment in turn; a failed report carries the durations
// and summed metrics of the segments that ran, and its segment's error.
// Every other value was taken while the report still held six full
// segment records.
func TestRecordMonitorFromReport(t *testing.T) {
	ana := [6]time.Duration{21035, 118245, 301244, 40521, 1843002, 402118}
	upTo := func(i int) (d [6]time.Duration) { copy(d[:i+1], ana[:i+1]); return d }
	setup := wrapper.Metrics{BytesFetched: 8192, CacheHits: 31, CacheMisses: 2}
	cond := setup
	cond.ConditionsBytes = 4096
	exec := cond
	exec.BytesIn, exec.Events = 4194304, 1024
	all := exec
	all.BytesOut = 32768
	failed := func(s wrapper.Segment, i int, m wrapper.Metrics) wrapper.Report {
		return wrapper.Report{Durations: upTo(i), Metrics: m, ExitCode: s.Code(), Failed: s, Error: "down: " + string(s)}
	}
	none := map[string]float64{"bytes_in": 0, "bytes_out": 0, "events": 0}
	anaMetrics := map[string]float64{"bytes_in": 4.194304e+06, "bytes_out": 32768, "events": 1024}
	cases := []struct {
		name, kind string
		rep        wrapper.Report
		want       monitor.TaskRecord
	}{
		{"analysis", "analysis", wrapper.Report{Durations: ana, Metrics: all},
			monitor.TaskRecord{CPUTime: 0.001843002, IOTime: 0.000341765, SetupTime: 0.000118245, StageIn: 4.0521e-05, StageOut: 0.000402118, Metrics: anaMetrics}},
		{"simulation", "simulation", wrapper.Report{Durations: [6]time.Duration{17011, 99873, 0, 250117, 5120009, 733001},
			Metrics: wrapper.Metrics{BytesIn: 262144, BytesOut: 65536, CacheHits: 12, Events: 500}},
			monitor.TaskRecord{CPUTime: 0.005120009, IOTime: 0.000250117, SetupTime: 9.9873e-05, StageIn: 0.000250117, StageOut: 0.000733001,
				Metrics: map[string]float64{"bytes_in": 262144, "bytes_out": 65536, "events": 500}}},
		{"env_init fails", "analysis", failed(wrapper.SegEnvInit, 0, wrapper.Metrics{}),
			monitor.TaskRecord{ExitCode: 10, FailedSegment: "env_init", Error: "down: env_init", Metrics: none}},
		{"software_setup fails", "analysis", failed(wrapper.SegSoftware, 1, setup),
			monitor.TaskRecord{ExitCode: 20, FailedSegment: "software_setup", Error: "down: software_setup", SetupTime: 0.000118245, Metrics: none}},
		{"conditions fails", "analysis", failed(wrapper.SegConditions, 2, cond),
			monitor.TaskRecord{ExitCode: 30, FailedSegment: "conditions", Error: "down: conditions", IOTime: 0.000301244, SetupTime: 0.000118245, Metrics: none}},
		{"stage_in fails", "analysis", failed(wrapper.SegStageIn, 3, cond),
			monitor.TaskRecord{ExitCode: 40, FailedSegment: "stage_in", Error: "down: stage_in", IOTime: 0.000341765, SetupTime: 0.000118245, StageIn: 4.0521e-05, Metrics: none}},
		{"execute fails", "analysis", failed(wrapper.SegExecute, 4, exec),
			monitor.TaskRecord{ExitCode: 50, FailedSegment: "execute", Error: "down: execute", CPUTime: 0.001843002, IOTime: 0.000341765, SetupTime: 0.000118245, StageIn: 4.0521e-05,
				Metrics: map[string]float64{"bytes_in": 4.194304e+06, "bytes_out": 0, "events": 1024}}},
		{"stage_out fails", "analysis", failed(wrapper.SegStageOut, 5, all),
			monitor.TaskRecord{ExitCode: 60, FailedSegment: "stage_out", Error: "down: stage_out", CPUTime: 0.001843002, IOTime: 0.000341765, SetupTime: 0.000118245, StageIn: 4.0521e-05, StageOut: 0.000402118, Metrics: anaMetrics}},
	}
	epoch := time.Date(2026, 10, 19, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	for i, c := range cases {
		l := &Lobster{svc: Services{Monitor: monitor.New()}, epoch: epoch}
		r := &wq.Result{TaskID: int64(i + 1), Tag: c.kind, Worker: "pilot-1", ExitCode: c.rep.ExitCode, Requeues: i % 2,
			Stats: wq.TaskStats{Times: wq.TaskTimes{Submitted: at(10), Dispatched: at(25), Started: at(31), Finished: at(2907), Returned: at(2950)}}}
		l.recordMonitor(r, &inflightTask{kind: "proc"}, &c.rep)
		want := c.want
		want.TaskID, want.Kind, want.Worker, want.Requeues = int64(i+1), c.kind, "pilot-1", i%2
		want.Submit, want.Dispatch, want.Start, want.Finish, want.Return = 0.01, 0.025, 0.031, 2.907, 2.95
		want.WQStageIn, want.WQStageOut = 0.006, 0.043
		if got := l.svc.Monitor.Records(); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: record\n%+v\nwant\n%+v", c.name, got, want)
		}
	}
}

// TestProcSuccessWithoutReportRetried: a processing result that claims
// success but carries no wrapper report has no record of what it wrote,
// so it is retried like a failure instead of accepted with 0 output
// bytes; the same result with its report is accepted and its output
// registered at the size the report gives.
func TestProcSuccessWithoutReportRetried(t *testing.T) {
	l := &Lobster{
		cfg:      Config{MaxTaskRetries: 3, MergeMode: MergeNone},
		svc:      Services{Monitor: monitor.New()},
		tasklets: make([]Tasklet, 2),
		state:    make([]TaskletState, 2),
		attempts: map[int]int{},
		inflight: map[int64]*inflightTask{
			1: {kind: "proc", group: []int{0}, output: "/store/out/0.root"},
			2: {kind: "proc", group: []int{1}, output: "/store/out/1.root"},
		},
	}
	if err := l.handleResult(&wq.Result{TaskID: 1}); err != nil {
		t.Fatal(err)
	}
	if l.state[0] != StatePending || len(l.pending) != 1 || l.tasksFailed != 1 || len(l.unmerged) != 0 {
		t.Errorf("no report: state %v, %d pending, %d failed, %d outputs; want pending, retried, no output",
			l.state[0], len(l.pending), l.tasksFailed, len(l.unmerged))
	}
	if recs := l.svc.Monitor.Records(); len(recs) != 1 || !recs[0].Failed() {
		t.Errorf("no report: monitor records %+v, want one failed record", recs)
	}

	rep := &wrapper.Report{Metrics: wrapper.Metrics{BytesOut: 4096}}
	if err := l.handleResult(&wq.Result{TaskID: 2, Report: rep}); err != nil {
		t.Fatal(err)
	}
	if l.state[1] != StateDone || len(l.unmerged) != 1 || l.unmerged[0].Bytes != 4096 {
		t.Errorf("with report: state %v, outputs %+v; want done, one 4096-byte output", l.state[1], l.unmerged)
	}
}

// TestRecordMonitorUntracedAllocs: with no event log a task record is
// never boxed for one, so feeding only the stage histograms allocates
// nothing once the record's shared Metrics map exists.
func TestRecordMonitorUntracedAllocs(t *testing.T) {
	l := &Lobster{epoch: time.Now()}
	l.tel.stages = telemetry.NewStageHistograms(telemetry.NewRegistry())
	rep := &wrapper.Report{Metrics: wrapper.Metrics{Events: 4}}
	r, info := &wq.Result{TaskID: 1}, &inflightTask{kind: "proc"}
	if n := testing.AllocsPerRun(100, func() { l.recordMonitor(r, info, rep) }); n != 0 {
		t.Errorf("recordMonitor allocates %g times a task with no event log, want 0", n)
	}
}
