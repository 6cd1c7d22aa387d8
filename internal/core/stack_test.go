package core

// Full-stack integration tests: Lobster driving real TCP services end to
// end — cvmfs behind squid, the xrootd federation, a chirp storage element
// (local disk or HDFS-backed), a Work Queue master with multi-core workers,
// and the monitoring pipeline.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lobster/internal/chirp"
	"lobster/internal/cvmfs"
	"lobster/internal/dbs"
	"lobster/internal/frontier"
	"lobster/internal/hdfs"
	"lobster/internal/hepsim"
	"lobster/internal/monitor"
	"lobster/internal/parrot"
	"lobster/internal/retry"
	"lobster/internal/squid"
	"lobster/internal/stats"
	"lobster/internal/store"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wq"
	"lobster/internal/xrootd"
)

const stackEventSize = 256

type stack struct {
	svc      Services
	env      *hepsim.Env
	chirpFS  chirp.FileSystem
	chirpSrv *chirp.Server
	dataset  *dbs.Dataset
	proxy    *squid.Proxy
	dash     *xrootd.Dashboard
	registry wq.Registry
}

// startStack assembles every service. If cluster is non-nil it backs the
// chirp storage element (needed for hadoop merging).
func startStack(t *testing.T, files, lumisPerFile, eventsPerFile int, cluster *hdfs.Cluster) *stack {
	t.Helper()
	st := &stack{}

	// Dataset metadata + content on the federation.
	ds, err := dbs.Generate(dbs.GenConfig{
		Name: "/Stack/Test/AOD", Files: files, EventsPerFile: eventsPerFile,
		LumisPerFile: lumisPerFile, EventBytes: stackEventSize,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.dataset = ds
	st.svc.DBS = dbs.NewService()
	if err := st.svc.DBS.Register(ds); err != nil {
		t.Fatal(err)
	}

	dataSrv, err := xrootd.NewDataServer("T2_US_Stack", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dataSrv.Close() })
	red := xrootd.NewRedirector()
	kernel, _ := hepsim.NewKernel(stackEventSize, 1)
	rng := stats.NewRand(42)
	for _, f := range ds.Files {
		content := kernel.GenerateEvents(f.Events, rng)
		red.Register(f.LFN, dataSrv.Store(f.LFN, content))
	}
	st.dash = xrootd.NewDashboard()

	// CVMFS + Frontier behind one squid.
	repo := cvmfs.NewRepository("cms.cern.ch")
	if _, err := cvmfs.PublishRelease(repo, cvmfs.TestRelease("CMSSW_7_4_0"), stats.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	cond := frontier.NewService()
	cond.Publish(frontier.Payload{Tag: "align", FirstRun: 1, LastRun: 10000000, Data: []byte("x")})
	mux := http.NewServeMux()
	mux.Handle("/frontier/", cond)
	mux.Handle("/", cvmfs.NewServer(repo))
	origin := httptest.NewServer(mux)
	t.Cleanup(origin.Close)
	st.proxy, err = squid.New(origin.URL, squid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(st.proxy)
	t.Cleanup(proxySrv.Close)

	// Chirp storage element.
	if cluster != nil {
		st.chirpFS = cluster
		st.svc.HDFS = cluster
	} else {
		fs, err := chirp.NewLocalFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.chirpFS = fs
	}
	st.chirpSrv, err = chirp.NewServer(st.chirpFS, "127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.chirpSrv.Close() })

	// Worker environment + registry.
	cache, err := parrot.NewCache(t.TempDir(), parrot.ModeAlien)
	if err != nil {
		t.Fatal(err)
	}
	xcl := &xrootd.Client{Redirector: red, Dashboard: st.dash, Consumer: "lobster"}
	st.env = &hepsim.Env{
		ProxyURL:      proxySrv.URL,
		Repo:          "cms.cern.ch",
		ReleasePath:   "/CMSSW_7_4_0",
		Cache:         cache,
		ChirpAddr:     st.chirpSrv.Addr(),
		ConditionsTag: "align",
		Open: func(lfn string, tr *trace.Tracer, ctx trace.Context) (hepsim.RemoteFile, error) {
			return xcl.OpenTraced(lfn, tr, ctx)
		},
	}
	mergePool := MergePool(st.chirpSrv.Addr(), retry.Policy{}, nil)
	t.Cleanup(func() { mergePool.Close() })
	st.registry = wq.Registry{
		"analysis":   hepsim.Analysis(st.env),
		"simulation": hepsim.Simulation(st.env),
		"merge":      MergeExecutor(mergePool),
	}

	// Master + workers.
	master, err := wq.NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	st.svc.Master = master
	for i := 0; i < 2; i++ {
		w, err := wq.NewWorker(master.Addr(), fmt.Sprintf("w%d", i), 4, t.TempDir(), st.registry)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}

	st.svc.Monitor = monitor.New()
	st.svc.Epoch = time.Now()
	return st
}

func runWorkflow(t *testing.T, st *stack, cfg Config) *RunReport {
	t.Helper()
	cfg.EventSize = stackEventSize
	l, err := New(cfg, st.svc)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(60 * time.Second)
	rep, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAnalysisWorkflowEndToEnd(t *testing.T) {
	st := startStack(t, 4, 4, 20, nil) // 80 events total, 16 tasklets
	rep := runWorkflow(t, st, Config{
		Name: "e2e", Kind: KindAnalysis, Dataset: st.dataset.Name,
		TaskletsPerTask: 2, AccessMode: AccessStream,
	})
	if !rep.Succeeded() {
		t.Fatalf("report = %+v", rep)
	}
	if rep.TaskletsTotal != 16 || rep.TaskletsDone != 16 {
		t.Errorf("tasklets: %+v", rep)
	}
	if rep.TasksRun != 8 {
		t.Errorf("tasks run = %d, want 8", rep.TasksRun)
	}
	// Outputs exist on the storage element and their summed size matches
	// the expected reduction: 80 events x 8 bytes.
	outs, err := st.chirpFS.List("/store/user/e2e")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, o := range outs {
		total += o.Size
	}
	if total != 80*8 {
		t.Errorf("reduced bytes = %d, want 640", total)
	}
	// Monitoring captured every task with timing and metrics.
	if st.svc.Monitor.Len() != 8 {
		t.Errorf("monitor records = %d", st.svc.Monitor.Len())
	}
	var events float64
	st.svc.Monitor.Each(func(r *monitor.TaskRecord) {
		events += r.Metrics["events"]
		if r.Finish <= r.Start {
			t.Error("record without positive wall time")
		}
	})
	if events != 80 {
		t.Errorf("monitored events = %g", events)
	}
	// The dashboard saw the streamed input volume.
	if st.dash.Volume("lobster") != int64(80*stackEventSize) {
		t.Errorf("dashboard volume = %d", st.dash.Volume("lobster"))
	}
}

func TestAnalysisWithInterleavedMerge(t *testing.T) {
	// 288 events, 48 tasklets: six waves over the stack's eight slots, so
	// the first merge (four outputs, ready after the first wave) has five
	// waves of analysis left to overlap with. At 12 tasklets the second and
	// last wave could finish before the merge was even dispatched.
	st := startStack(t, 6, 8, 48, nil)
	rep := runWorkflow(t, st, Config{
		Name: "ilv", Kind: KindAnalysis, Dataset: st.dataset.Name,
		TaskletsPerTask: 1, MergeMode: MergeInterleaved,
		MergeTargetBytes: 150, // each output = 6 events × 8 B = 48 B
	})
	if !rep.Succeeded() {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MergesRun == 0 || rep.MergedFiles == 0 {
		t.Fatalf("no merges: %+v", rep)
	}
	// All original outputs merged away; merged files hold all bytes.
	outs, err := st.chirpFS.List("/store/user/ilv")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, o := range outs {
		if !strings.Contains(o.Name, "merged") {
			t.Errorf("unmerged output left: %s", o.Name)
		}
		total += o.Size
	}
	if total != 288*8 {
		t.Errorf("merged bytes = %d, want 2304", total)
	}
	// Interleaved merging must overlap with analysis: merge tasks recorded
	// by the monitor should not all start after the last analysis finish.
	var lastAnalysisFinish, firstMergeStart float64
	firstMergeStart = 1e18
	st.svc.Monitor.Each(func(r *monitor.TaskRecord) {
		switch r.Kind {
		case "analysis":
			if r.Finish > lastAnalysisFinish {
				lastAnalysisFinish = r.Finish
			}
		case "merge":
			if r.Start < firstMergeStart {
				firstMergeStart = r.Start
			}
		}
	})
	if firstMergeStart >= lastAnalysisFinish {
		t.Errorf("merging never overlapped analysis: first merge %g, last analysis %g",
			firstMergeStart, lastAnalysisFinish)
	}
}

func TestAnalysisWithSequentialMerge(t *testing.T) {
	st := startStack(t, 4, 2, 10, nil) // 40 events, 8 tasklets
	rep := runWorkflow(t, st, Config{
		Name: "seq", Kind: KindAnalysis, Dataset: st.dataset.Name,
		TaskletsPerTask: 2, MergeMode: MergeSequential, MergeTargetBytes: 100,
	})
	if !rep.Succeeded() || rep.MergedFiles == 0 {
		t.Fatalf("report = %+v", rep)
	}
	outs, _ := st.chirpFS.List("/store/user/seq")
	var total int64
	for _, o := range outs {
		total += o.Size
	}
	if total != 40*8 {
		t.Errorf("bytes after merge = %d", total)
	}
	// Sequential merging strictly follows analysis.
	var lastAnalysisFinish, firstMergeStart float64
	firstMergeStart = 1e18
	st.svc.Monitor.Each(func(r *monitor.TaskRecord) {
		switch r.Kind {
		case "analysis":
			if r.Finish > lastAnalysisFinish {
				lastAnalysisFinish = r.Finish
			}
		case "merge":
			if r.Start < firstMergeStart {
				firstMergeStart = r.Start
			}
		}
	})
	if firstMergeStart < lastAnalysisFinish {
		t.Errorf("sequential merge started before analysis finished")
	}
}

func TestAnalysisWithHadoopMerge(t *testing.T) {
	cluster, err := hdfs.NewCluster(3, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, 4, 2, 10, cluster)
	rep := runWorkflow(t, st, Config{
		Name: "hdp", Kind: KindAnalysis, Dataset: st.dataset.Name,
		TaskletsPerTask: 2, MergeMode: MergeHadoop, MergeTargetBytes: 100,
	})
	if !rep.Succeeded() || rep.MergedFiles == 0 {
		t.Fatalf("report = %+v", rep)
	}
	merged := cluster.Glob("/store/user/hdp/hdp_hmerged_")
	if len(merged) != rep.MergedFiles {
		t.Errorf("merged files on cluster = %d, report says %d", len(merged), rep.MergedFiles)
	}
	var total int64
	for _, p := range merged {
		data, err := cluster.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(data))
	}
	if total != 40*8 {
		t.Errorf("merged bytes = %d", total)
	}
	// Small files are gone.
	for _, p := range cluster.Glob("/store/user/hdp/") {
		if !strings.Contains(p, "hmerged") {
			t.Errorf("unmerged small file left: %s", p)
		}
	}
}

func TestSimulationWorkflowEndToEnd(t *testing.T) {
	st := startStack(t, 1, 1, 1, nil)
	// Pile-up sample on the storage element.
	kernel, _ := hepsim.NewKernel(stackEventSize, 1)
	if err := st.chirpFS.WriteFile("/pileup/minbias.root",
		kernel.GenerateEvents(4, stats.NewRand(5))); err != nil {
		t.Fatal(err)
	}
	rep := runWorkflow(t, st, Config{
		Name: "mc", Kind: KindSimulation, TotalEvents: 500, EventsPerTasklet: 50,
		TaskletsPerTask: 2, PileupPath: "/pileup/minbias.root",
	})
	if !rep.Succeeded() {
		t.Fatalf("report = %+v", rep)
	}
	if rep.TaskletsTotal != 10 || rep.TasksRun != 5 {
		t.Errorf("report = %+v", rep)
	}
	outs, _ := st.chirpFS.List("/store/user/mc")
	var total int64
	for _, o := range outs {
		total += o.Size
	}
	if total != 500*8 {
		t.Errorf("simulated output bytes = %d, want 4000", total)
	}
}

// TestEventLogReplays runs a workflow with an event log and checks (a) the
// log carries one "task" event per record, and (b) replaying it rebuilds a
// monitor DB identical to the live one.
func TestEventLogReplays(t *testing.T) {
	st := startStack(t, 4, 4, 20, nil) // 16 tasklets -> 8 tasks
	var buf bytes.Buffer
	st.svc.EventLog = telemetry.NewEventLog(&buf, nil)
	rep := runWorkflow(t, st, Config{
		Name: "evb", Kind: KindAnalysis, Dataset: st.dataset.Name,
		TaskletsPerTask: 2,
	})
	if !rep.Succeeded() || rep.TasksRun != 8 {
		t.Fatalf("report = %+v", rep)
	}
	if err := st.svc.EventLog.Flush(); err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	if n := strings.Count(log, `"type":"task"`); n != 8 {
		t.Errorf("task events = %d, want 8", n)
	}
	rebuilt := monitor.New()
	n, err := rebuilt.ReplayLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("replayed %d records, want 8", n)
	}
	if !reflect.DeepEqual(st.svc.Monitor.Records(), rebuilt.Records()) {
		t.Error("replayed records differ from live monitor")
	}
}

func TestCrashRecoverySkipsDoneWork(t *testing.T) {
	st := startStack(t, 3, 2, 10, nil)
	db, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st.svc.DB = db

	cfg := Config{Name: "rec", Kind: KindAnalysis, Dataset: st.dataset.Name, TaskletsPerTask: 2}
	rep1 := runWorkflow(t, st, cfg)
	if !rep1.Succeeded() || rep1.Recovered {
		t.Fatalf("first run: %+v", rep1)
	}

	// "Crash and reboot": a fresh Lobster over the same DB must recover the
	// completed state and re-run nothing.
	rep2 := runWorkflow(t, st, cfg)
	if !rep2.Recovered {
		t.Fatal("second run did not recover state")
	}
	if rep2.TasksRun != 0 {
		t.Errorf("recovered run re-executed %d tasks", rep2.TasksRun)
	}
	if !rep2.Succeeded() || rep2.TaskletsDone != rep1.TaskletsTotal {
		t.Errorf("recovered report: %+v", rep2)
	}
}

func TestRecoveryRejectsMismatchedPlan(t *testing.T) {
	st := startStack(t, 3, 2, 10, nil)
	db, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st.svc.DB = db
	cfg := Config{Name: "mismatch", Kind: KindAnalysis, Dataset: st.dataset.Name, TaskletsPerTask: 2}
	runWorkflow(t, st, cfg)

	// Same name, different plan (lumi mask shrinks the tasklet count).
	firstRun := st.dataset.Files[0].Lumis[0].Run
	cfg.LumiMask = &dbs.LumiMask{Ranges: map[int][][2]int{
		firstRun: {{st.dataset.Files[0].Lumis[0].Lumi, st.dataset.Files[0].Lumis[0].Lumi}},
	}}
	l, err := New(cfg, st.svc)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(10 * time.Second)
	if _, err := l.Run(); err == nil {
		t.Fatal("mismatched plan accepted")
	}
}

func TestWorkflowUnderEviction(t *testing.T) {
	st := startStack(t, 4, 2, 10, nil)
	// Add a saboteur: an extra worker that keeps dying. The pool machinery
	// is exercised in cluster tests; here one flaky worker suffices.
	flaky, err := wq.NewWorker(st.svc.Master.Addr(), "flaky", 2, t.TempDir(), st.registry)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		flaky.Evict()
	}()
	rep := runWorkflow(t, st, Config{
		Name: "evict", Kind: KindAnalysis, Dataset: st.dataset.Name, TaskletsPerTask: 1,
	})
	if !rep.Succeeded() {
		t.Fatalf("workflow failed under eviction: %+v", rep)
	}
}

func TestFailedSegmentPropagatesToMonitor(t *testing.T) {
	st := startStack(t, 2, 2, 10, nil)
	// Poison the dataset: deregister content for one file so its tasks fail
	// in stage_in, exhausting retries.
	reg := wq.Registry{}
	for k, v := range st.registry {
		reg[k] = v
	}
	// Point one LFN at nothing by removing every replica via a fresh
	// redirector-less env: simplest is to use a bogus LFN via lumi mask —
	// instead, run with a dataset name that resolves but a broken Open for
	// one file.
	brokenLFN := st.dataset.Files[0].LFN
	origOpen := st.env.Open
	st.env.Open = func(lfn string, tr *trace.Tracer, ctx trace.Context) (hepsim.RemoteFile, error) {
		if lfn == brokenLFN {
			return nil, fmt.Errorf("synthetic federation outage for %s", lfn)
		}
		return origOpen(lfn, tr, ctx)
	}
	rep := runWorkflow(t, st, Config{
		Name: "fail", Kind: KindAnalysis, Dataset: st.dataset.Name,
		TaskletsPerTask: 2, MaxTaskRetries: 2,
	})
	if rep.Succeeded() {
		t.Fatal("workflow succeeded despite poisoned file")
	}
	if rep.TaskletsFailed != 2 { // the broken file's 2 tasklets
		t.Errorf("failed tasklets = %d", rep.TaskletsFailed)
	}
	// Monitor records attribute the failure to stage_in.
	sawStageInFailure := false
	st.svc.Monitor.Each(func(r *monitor.TaskRecord) {
		if r.Failed() && r.FailedSegment == "stage_in" {
			sawStageInFailure = true
		}
	})
	if !sawStageInFailure {
		t.Error("no stage_in failure recorded")
	}
}
