package hepsim

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/chirp"
	"lobster/internal/cvmfs"
	"lobster/internal/frontier"
	"lobster/internal/parrot"
	"lobster/internal/squid"
	"lobster/internal/stats"
	"lobster/internal/trace"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
	"lobster/internal/xrootd"
)

func TestKernelDeterministicReduction(t *testing.T) {
	k, err := NewKernel(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("event"), 64) // 320 bytes = 5 events
	out1, n1 := k.ProcessAll(data)
	out2, n2 := k.ProcessAll(data)
	if n1 != 5 || n2 != 5 {
		t.Fatalf("events = %d, %d", n1, n2)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatal("kernel not deterministic")
	}
	if len(out1) != 5*8*2 {
		t.Fatalf("output size = %d", len(out1))
	}
	// Reduction: output much smaller than input.
	if len(out1) >= len(data) {
		t.Error("no reduction")
	}
}

func TestKernelDistinctEventsDistinctDigests(t *testing.T) {
	k, _ := NewKernel(32, 1)
	a, _ := k.ProcessAll(bytes.Repeat([]byte{1}, 32))
	b, _ := k.ProcessAll(bytes.Repeat([]byte{2}, 32))
	if bytes.Equal(a, b) {
		t.Error("distinct events share a digest")
	}
}

func TestKernelValidation(t *testing.T) {
	if _, err := NewKernel(0, 1); err == nil {
		t.Error("zero event size accepted")
	}
	k, _ := NewKernel(16, 0)
	if k.WorkFactor != 1 {
		t.Error("work factor not defaulted")
	}
}

func TestGenerateAndOverlay(t *testing.T) {
	k, _ := NewKernel(32, 1)
	rng := stats.NewRand(1)
	signal := k.GenerateEvents(10, rng)
	if len(signal) != 320 {
		t.Fatalf("generated %d bytes", len(signal))
	}
	orig := append([]byte(nil), signal...)
	pileup := k.GenerateEvents(3, stats.NewRand(2))
	if err := k.OverlayPileup(signal, pileup); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(signal, orig) {
		t.Error("overlay changed nothing")
	}
	// Overlay twice with same pile-up restores the signal (XOR).
	k.OverlayPileup(signal, pileup)
	if !bytes.Equal(signal, orig) {
		t.Error("double overlay not identity")
	}
	if err := k.OverlayPileup(signal, []byte("tiny")); err == nil {
		t.Error("undersized pile-up accepted")
	}
}

// fakeFile implements RemoteFile over a byte slice.
type fakeFile struct{ data []byte }

func (f *fakeFile) Size() int64 { return int64(len(f.data)) }
func (f *fakeFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	return copy(p, f.data[off:]), nil
}
func (f *fakeFile) Close() error { return nil }

// testServices spins up the full real-plane service stack: cvmfs behind
// squid, frontier behind the same squid, an xrootd federation, and a chirp
// storage element.
type testServices struct {
	env       *Env
	chirpFS   *chirp.LocalFS
	chirpSrv  *chirp.Server
	dataSrv   *xrootd.DataServer
	redir     *xrootd.Redirector
	dash      *xrootd.Dashboard
	proxy     *squid.Proxy
	cvmfsRepo *cvmfs.Repository
}

func startServices(t testing.TB) *testServices {
	t.Helper()
	// CVMFS origin with a small release.
	repo := cvmfs.NewRepository("cms.cern.ch")
	if _, err := cvmfs.PublishRelease(repo, cvmfs.TestRelease("CMSSW_7_4_0"), stats.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	// Frontier behind the same origin mux.
	cond := frontier.NewService()
	cond.Publish(frontier.Payload{Tag: "align", FirstRun: 1, LastRun: 1000000, Data: []byte("calibration")})
	mux := httptest.NewServer(muxFor(repo, cond))
	t.Cleanup(mux.Close)
	proxy, err := squid.New(mux.URL, squid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(proxy)
	t.Cleanup(proxySrv.Close)

	// XrootD federation.
	red := xrootd.NewRedirector()
	ds, err := xrootd.NewDataServer("T2_US_Test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	dash := xrootd.NewDashboard()

	// Chirp storage element.
	fs, err := chirp.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	se, err := chirp.NewServer(fs, "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { se.Close() })

	cache, err := parrot.NewCache(t.TempDir(), parrot.ModeAlien)
	if err != nil {
		t.Fatal(err)
	}
	cl := &xrootd.Client{Redirector: red, Dashboard: dash, Consumer: "lobster-test"}
	env := &Env{
		ProxyURL:      proxySrv.URL,
		Repo:          "cms.cern.ch",
		ReleasePath:   "/CMSSW_7_4_0",
		Cache:         cache,
		ChirpAddr:     se.Addr(),
		ConditionsTag: "align",
		Open: func(lfn string, tr *trace.Tracer, ctx trace.Context) (RemoteFile, error) {
			f, err := cl.OpenTraced(lfn, tr, ctx)
			if err != nil {
				return nil, err
			}
			return f, nil
		},
	}
	// Registered last so it runs first: the env's pooled chirp
	// connections drop before the storage element shuts down.
	t.Cleanup(func() { env.Close(); cl.Close() })
	return &testServices{env: env, chirpFS: fs, chirpSrv: se, dataSrv: ds, redir: red, dash: dash, proxy: proxy, cvmfsRepo: repo}
}

// muxFor routes cvmfs and frontier paths on one origin.
func muxFor(repo *cvmfs.Repository, cond *frontier.Service) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/frontier/", cond)
	mux.Handle("/", cvmfs.NewServer(repo))
	return mux
}

// newFastTimeoutClient returns an HTTP client that gives up quickly, so
// dead-proxy tests do not stall.
func newFastTimeoutClient() *http.Client {
	return &http.Client{Timeout: 500 * time.Millisecond}
}

// taskFunc is an executor's body: what Analysis and Simulation wrap, with
// the wrapper report still in hand for the test to read.
type taskFunc func(*wq.ExecContext) *wrapper.Report

func analysis(env *Env) taskFunc {
	return func(ctx *wq.ExecContext) *wrapper.Report { return runAnalysis(env, ctx) }
}

func simulation(env *Env) taskFunc {
	return func(ctx *wq.ExecContext) *wrapper.Report { return runSimulation(env, ctx) }
}

func runTask(t testing.TB, run taskFunc, task *wq.Task) *wrapper.Report {
	t.Helper()
	return runTaskIn(t, t.TempDir(), run, task)
}

// runTaskIn runs one task as the executor would, and checks that the
// error the worker gets agrees with the report the master gets.
func runTaskIn(t testing.TB, sandbox string, run taskFunc, task *wq.Task) *wrapper.Report {
	t.Helper()
	ctx := &wq.ExecContext{Task: task, Sandbox: sandbox, WorkerName: "test"}
	rep := run(ctx)
	if err := finish(ctx, rep); (err != nil) != (rep.ExitCode != 0) {
		t.Fatalf("exec err %v inconsistent with report %+v", err, rep)
	}
	return rep
}

func TestAnalysisStreamingEndToEnd(t *testing.T) {
	svc := startServices(t)
	// Publish event data into the federation: 50 events of 256 B.
	k, _ := NewKernel(256, 1)
	data := k.GenerateEvents(50, stats.NewRand(3))
	svc.redir.Register("/store/data/f0.root", svc.dataSrv.Store("/store/data/f0.root", data))

	exec := analysis(svc.env)
	rep := runTask(t, exec, &wq.Task{
		ID: 1,
		Args: map[string]string{
			"lfn": "/store/data/f0.root", "mode": "stream",
			"output": "/out/f0.reduced", "run": "42",
			"event_size": "256", "work": "1",
		},
	})
	if rep.ExitCode != 0 {
		t.Fatalf("analysis failed: %+v", rep)
	}
	if rep.Metric("events") != 50 {
		t.Errorf("events = %g", rep.Metric("events"))
	}
	if rep.Metric("bytes_in") != float64(len(data)) {
		t.Errorf("bytes_in = %g, want %d", rep.Metric("bytes_in"), len(data))
	}
	// Output landed on the storage element with the expected content.
	want, _ := k.ProcessAll(data)
	got, err := svc.chirpFS.ReadFile("/out/f0.reduced")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stage-out content wrong: %v", err)
	}
	// Dashboard accounted the streamed volume.
	if svc.dash.Volume("lobster-test") != int64(len(data)) {
		t.Errorf("dashboard volume = %d", svc.dash.Volume("lobster-test"))
	}
	// Software came through the proxy.
	if svc.proxy.Stats().Misses == 0 {
		t.Error("proxy never consulted for software")
	}
}

func TestAnalysisStageModeMatchesStreaming(t *testing.T) {
	svc := startServices(t)
	k, _ := NewKernel(128, 1)
	data := k.GenerateEvents(20, stats.NewRand(4))
	svc.redir.Register("/store/s.root", svc.dataSrv.Store("/store/s.root", data))

	exec := analysis(svc.env)
	repStream := runTask(t, exec, &wq.Task{ID: 2, Args: map[string]string{
		"lfn": "/store/s.root", "mode": "stream", "output": "/out/stream",
		"event_size": "128"}})
	repStage := runTask(t, exec, &wq.Task{ID: 3, Args: map[string]string{
		"lfn": "/store/s.root", "mode": "stage", "output": "/out/stage",
		"event_size": "128"}})
	if repStream.ExitCode != 0 || repStage.ExitCode != 0 {
		t.Fatalf("reports: %+v %+v", repStream, repStage)
	}
	a, _ := svc.chirpFS.ReadFile("/out/stream")
	b, _ := svc.chirpFS.ReadFile("/out/stage")
	if !bytes.Equal(a, b) {
		t.Error("stream and stage outputs differ")
	}
	// In stage mode the bytes land during stage_in; streaming during execute.
	if repStage.Metric("bytes_in") != float64(len(data)) {
		t.Errorf("stage bytes_in = %g", repStage.Metric("bytes_in"))
	}
	var stageInSeg, execSeg wrapper.SegmentReport
	for _, s := range repStage.Segments {
		if s.Segment == wrapper.SegStageIn {
			stageInSeg = s
		}
	}
	for _, s := range repStream.Segments {
		if s.Segment == wrapper.SegExecute {
			execSeg = s
		}
	}
	if stageInSeg.Metrics["bytes_in"] == 0 {
		t.Error("stage mode moved no bytes in stage_in segment")
	}
	if execSeg.Metrics["bytes_in"] == 0 {
		t.Error("stream mode moved no bytes in execute segment")
	}
}

func TestAnalysisFailureSegmentAttribution(t *testing.T) {
	svc := startServices(t)
	exec := analysis(svc.env)
	// Missing LFN → stage_in failure with its code.
	rep := runTask(t, exec, &wq.Task{ID: 4, Args: map[string]string{
		"lfn": "/store/does-not-exist.root"}})
	if rep.Failed != wrapper.SegStageIn || rep.ExitCode != wrapper.SegStageIn.Code() {
		t.Fatalf("report = %+v", rep)
	}
}

// lyingFile is a replica whose open announced claimed bytes and whose
// reads serve the few it holds.
type lyingFile struct {
	fakeFile
	claimed int64
}

func (f *lyingFile) Size() int64 { return f.claimed }

// TestAnalysisFromALyingReplica: stage mode sizes its input from the
// replica's open reply. A replica that answers 1 TiB and serves 1 KiB
// fails the task in stage_in, having cost about a chunk, and the
// process lives; a claim the largest class covers fails the same way
// from a pooled buffer that goes back to its class.
func TestAnalysisFromALyingReplica(t *testing.T) {
	svc := startServices(t)
	// run is one task against a replica that claims claimed bytes and
	// serves 1 KiB, and what the task allocated.
	run := func(mode string, claimed int64) (*wrapper.Report, uint64) {
		env := svc.env.cloneConfig()
		env.Open = func(string, *trace.Tracer, trace.Context) (RemoteFile, error) {
			return &lyingFile{fakeFile{make([]byte, 1<<10)}, claimed}, nil
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := runTask(t, analysis(env), &wq.Task{ID: 7, Args: map[string]string{
			"lfn": "/store/liar.root", "mode": mode, "output": "/out/liar", "event_size": "256"}})
		runtime.ReadMemStats(&after)
		return rep, after.TotalAlloc - before.TotalAlloc
	}
	for _, claimed := range []int64{1 << 40, 5 << 20} {
		rep, got := run("stage", claimed)
		if rep.Failed != wrapper.SegStageIn || rep.ExitCode != wrapper.SegStageIn.Code() {
			t.Fatalf("%d bytes claimed, 1 KiB served: report = %+v, want a stage_in failure", claimed, rep)
		}
		if claimed > bufpool.MaxSized && got >= 4<<20 {
			t.Errorf("%d bytes claimed, 1 KiB served: %d bytes allocated, want under 4 MiB", claimed, got)
		}
	}
	// Stream mode sizes only its output from the claim, and borrows no
	// more than the largest class for it whatever the claim.
	rep, got := run("stream", 1<<40)
	if rep.Metric("events") != 4 || got > bufpool.MaxSized+4<<20 {
		t.Errorf("stream mode, 1 TiB claimed, 1 KiB served: %g events, %d bytes allocated; want the 4 events served and at most one largest-class buffer", rep.Metric("events"), got)
	}
}

func TestAnalysisSquidOutageIsSoftwareFailure(t *testing.T) {
	svc := startServices(t)
	// Point the env at a dead proxy: software setup must fail with its code.
	env := svc.env.cloneConfig()
	env.ProxyURL = "http://127.0.0.1:1" // nothing listens
	env.HTTPClient = newFastTimeoutClient()
	exec := analysis(env)
	rep := runTask(t, exec, &wq.Task{ID: 5, Args: map[string]string{"lfn": "/x"}})
	if rep.Failed != wrapper.SegSoftware {
		t.Fatalf("failed segment = %s", rep.Failed)
	}
}

func TestSimulationEndToEnd(t *testing.T) {
	svc := startServices(t)
	// Pile-up sample on the local storage element.
	k, _ := NewKernel(128, 1)
	pileup := k.GenerateEvents(4, stats.NewRand(9))
	if err := svc.chirpFS.WriteFile("/pileup/minbias.root", pileup); err != nil {
		t.Fatal(err)
	}
	exec := simulation(svc.env)
	rep := runTask(t, exec, &wq.Task{ID: 6, Args: map[string]string{
		"events": "25", "seed": "7", "pileup": "/pileup/minbias.root",
		"output": "/out/sim0.root", "event_size": "128",
	}})
	if rep.ExitCode != 0 {
		t.Fatalf("simulation failed: %+v", rep)
	}
	if rep.Metric("events") != 25 {
		t.Errorf("events = %g", rep.Metric("events"))
	}
	if rep.Metric("bytes_in") != float64(len(pileup)) {
		t.Errorf("pile-up bytes = %g", rep.Metric("bytes_in"))
	}
	out, err := svc.chirpFS.ReadFile("/out/sim0.root")
	if err != nil || len(out) == 0 {
		t.Fatalf("simulation output missing: %v", err)
	}
	// Deterministic given the seed.
	rep2 := runTask(t, exec, &wq.Task{ID: 7, Args: map[string]string{
		"events": "25", "seed": "7", "pileup": "/pileup/minbias.root",
		"output": "/out/sim1.root", "event_size": "128",
	}})
	if rep2.ExitCode != 0 {
		t.Fatal("second simulation failed")
	}
	out2, _ := svc.chirpFS.ReadFile("/out/sim1.root")
	if !bytes.Equal(out, out2) {
		t.Error("simulation not deterministic for fixed seed")
	}
}

func TestSimulationRequiresEvents(t *testing.T) {
	svc := startServices(t)
	exec := simulation(svc.env)
	rep := runTask(t, exec, &wq.Task{ID: 8, Args: map[string]string{}})
	if rep.Failed != wrapper.SegExecute {
		t.Fatalf("report = %+v", rep)
	}
}

func TestProcessStreamingMatchesProcessAll(t *testing.T) {
	k, _ := NewKernel(64, 2)
	data := k.GenerateEvents(200, stats.NewRand(5))
	whole, nWhole := k.ProcessAll(data)
	streamed, nStream, bytesIn, err := processStreaming(k, &fakeFile{data: data}, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if nWhole != nStream || !bytes.Equal(whole, *streamed) {
		t.Error("streaming and staged reductions differ")
	}
	if bytesIn != int64(len(data)) {
		t.Errorf("streamed %d bytes of %d", bytesIn, len(data))
	}
}

func TestEventRangeSelection(t *testing.T) {
	k, _ := NewKernel(64, 1)
	size := int64(64 * 100) // 100 events
	cases := []struct {
		skip, max      int
		wantLo, wantHi int64
	}{
		{0, 0, 0, 6400},       // everything
		{10, 0, 640, 6400},    // skip 10, to EOF
		{10, 20, 640, 1920},   // middle window
		{90, 20, 5760, 6400},  // clipped at EOF
		{200, 10, 6400, 6400}, // fully past EOF
	}
	for _, c := range cases {
		args := map[string]string{}
		if c.skip != 0 {
			args["skip_events"] = fmt.Sprint(c.skip)
		}
		if c.max != 0 {
			args["max_events"] = fmt.Sprint(c.max)
		}
		lo, hi := eventRange(k, size, args)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("eventRange(skip=%d,max=%d) = [%d,%d), want [%d,%d)",
				c.skip, c.max, lo, hi, c.wantLo, c.wantHi)
		}
	}
}

func TestAnalysisSubRangeProcessesOnlyItsEvents(t *testing.T) {
	svc := startServices(t)
	k, _ := NewKernel(128, 1)
	data := k.GenerateEvents(40, stats.NewRand(21))
	svc.redir.Register("/store/ranged.root", svc.dataSrv.Store("/store/ranged.root", data))
	exec := analysis(svc.env)
	rep := runTask(t, exec, &wq.Task{ID: 30, Args: map[string]string{
		"lfn": "/store/ranged.root", "mode": "stream",
		"skip_events": "10", "max_events": "15",
		"output": "/out/ranged", "event_size": "128",
	}})
	if rep.ExitCode != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Metric("events") != 15 {
		t.Errorf("events = %g, want 15", rep.Metric("events"))
	}
	// The output must equal the reduction of exactly events 10..24.
	want, _ := k.ProcessAll(data[10*128 : 25*128])
	got, err := svc.chirpFS.ReadFile("/out/ranged")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("sub-range output wrong: %v", err)
	}
	// Stage mode over the same range produces identical output.
	rep = runTask(t, exec, &wq.Task{ID: 31, Args: map[string]string{
		"lfn": "/store/ranged.root", "mode": "stage",
		"skip_events": "10", "max_events": "15",
		"output": "/out/ranged-staged", "event_size": "128",
	}})
	if rep.ExitCode != 0 {
		t.Fatal("staged sub-range failed")
	}
	got2, _ := svc.chirpFS.ReadFile("/out/ranged-staged")
	if !bytes.Equal(got2, want) {
		t.Fatal("staged sub-range differs from streamed")
	}
}
