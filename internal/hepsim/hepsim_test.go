package hepsim

import (
	"bytes"
	"io"
	iofs "io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/chirp"
	"lobster/internal/cvmfs"
	"lobster/internal/frontier"
	"lobster/internal/parrot"
	"lobster/internal/squid"
	"lobster/internal/stats"
	"lobster/internal/telemetry"
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
	proxyURL, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

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
		ProxyURL:      proxyURL,
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

// taskFunc is an executor's body: what Analysis and Simulation wrap, with
// the wrapper report still in hand for the test to read.
type taskFunc func(*wq.ExecContext) *wrapper.Report

func analysis(env *Env) taskFunc {
	return func(ctx *wq.ExecContext) *wrapper.Report { return newAnalysisTask(env).run(ctx) }
}

func simulation(env *Env) taskFunc {
	return func(ctx *wq.ExecContext) *wrapper.Report { return newSimulationTask(env).run(ctx) }
}

// argsOf hands a task its argument record, as core does.
func argsOf(a wrapper.Args) *wrapper.Args { return &a }

func runTask(t testing.TB, run taskFunc, task *wq.Task) *wrapper.Report {
	t.Helper()
	return runTaskIn(t, t.TempDir(), run, task)
}

// runTaskIn runs one task as the executor would, with dir as the worker's
// scratch directory, and checks that the error the worker gets agrees
// with the report the master gets.
func runTaskIn(t testing.TB, dir string, run taskFunc, task *wq.Task) *wrapper.Report {
	t.Helper()
	ctx := &wq.ExecContext{Task: task, Dir: dir, WorkerName: "test"}
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
	svc.redir.Register("/store/data/f0.root", mustStore(svc.dataSrv, "/store/data/f0.root", data))

	exec := analysis(svc.env)
	rep := runTask(t, exec, &wq.Task{
		ID:   1,
		Args: argsOf(wrapper.Args{LFN: "/store/data/f0.root", Mode: "stream", Output: "/out/f0.reduced", Run: 42, EventSize: 256, Work: 1}),
	})
	if rep.ExitCode != 0 {
		t.Fatalf("analysis failed: %+v", rep)
	}
	if rep.Metrics.Events != 50 {
		t.Errorf("events = %g", rep.Metrics.Events)
	}
	if rep.Metrics.BytesIn != float64(len(data)) {
		t.Errorf("bytes_in = %g, want %d", rep.Metrics.BytesIn, len(data))
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
	svc.redir.Register("/store/s.root", mustStore(svc.dataSrv, "/store/s.root", data))

	exec := analysis(svc.env)
	repStream := runTask(t, exec, &wq.Task{ID: 2, Args: argsOf(wrapper.Args{LFN: "/store/s.root", Mode: "stream", Output: "/out/stream", EventSize: 128})})
	repStage := runTask(t, exec, &wq.Task{ID: 3, Args: argsOf(wrapper.Args{LFN: "/store/s.root", Mode: "stage", Output: "/out/stage", EventSize: 128})})
	if repStream.ExitCode != 0 || repStage.ExitCode != 0 {
		t.Fatalf("reports: %+v %+v", repStream, repStage)
	}
	a, _ := svc.chirpFS.ReadFile("/out/stream")
	b, _ := svc.chirpFS.ReadFile("/out/stage")
	if !bytes.Equal(a, b) {
		t.Error("stream and stage outputs differ")
	}
	if repStage.Metrics.BytesIn != float64(len(data)) {
		t.Errorf("stage bytes_in = %g", repStage.Metrics.BytesIn)
	}
	// In stage mode the bytes land during stage_in, streaming during
	// execute: each segment's span says so.
	for _, c := range []struct{ mode, seg string }{{"stage", "stage_in"}, {"stream", "execute"}} {
		reg := telemetry.NewRegistry()
		var buf bytes.Buffer
		log := telemetry.NewEventLog(&buf, nil)
		tr := trace.New(trace.Config{Registry: reg, Log: log})
		root := tr.Root("test", "task", "")
		ctx := &wq.ExecContext{Task: &wq.Task{ID: 4, Args: argsOf(wrapper.Args{LFN: "/store/s.root", Mode: c.mode, Output: "/out/" + c.mode + "-traced", EventSize: 128})},
			Dir: t.TempDir(), WorkerName: "test", Tracer: tr, Trace: root.Context()}
		if rep := exec(ctx); rep.ExitCode != 0 {
			t.Fatalf("traced %s task: %+v", c.mode, rep)
		}
		root.End()
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, err := trace.ReadRecords(&buf)
		if err != nil {
			t.Fatal(err)
		}
		in := map[string]string{}
		for _, r := range recs {
			if r.Comp == "wrapper" {
				in[r.Name] = r.Attrs["bytes_in"]
			}
		}
		if want := strconv.Itoa(len(data)); in[c.seg] != want {
			t.Errorf("%s mode: bytes_in by segment span %v, want %s on %s", c.mode, in, want, c.seg)
		}
	}
}

func TestAnalysisFailureSegmentAttribution(t *testing.T) {
	svc := startServices(t)
	exec := analysis(svc.env)
	// Missing LFN → stage_in failure with its code.
	rep := runTask(t, exec, &wq.Task{ID: 4, Args: argsOf(wrapper.Args{LFN: "/store/does-not-exist.root"})})
	if rep.Failed != wrapper.SegStageIn || rep.ExitCode != wrapper.SegStageIn.Code() {
		t.Fatalf("report = %+v", rep)
	}
}

// TestAnalysisOutputWithoutStorageElementFails: a task that names an
// output on a worker with no storage element fails in stage_out, naming
// the output. Written into the sandbox instead, it would be deleted with
// the sandbox while the task reported success.
func TestAnalysisOutputWithoutStorageElementFails(t *testing.T) {
	svc := startServices(t)
	k, _ := NewKernel(128, 1)
	svc.redir.Register("/store/f.root", mustStore(svc.dataSrv, "/store/f.root", k.GenerateEvents(8, stats.NewRand(5))))
	local := cloneEnv(svc.env)
	local.ChirpAddr = ""
	dir := t.TempDir()
	sandbox := filepath.Join(dir, "task-7")
	rep := runTaskIn(t, dir, analysis(local), &wq.Task{ID: 7, Args: argsOf(wrapper.Args{LFN: "/store/f.root", EventSize: 128, Output: "/out/lost.root"})})
	if rep.Failed != wrapper.SegStageOut || rep.ExitCode != wrapper.SegStageOut.Code() {
		t.Fatalf("report = %+v, want a stage_out failure", rep)
	}
	if !strings.Contains(rep.Error, "/out/lost.root") {
		t.Errorf("stage_out error %q does not name the output", rep.Error)
	}
	if _, err := os.Stat(sandbox); !os.IsNotExist(err) {
		t.Errorf("the failed stage-out left a sandbox behind: %v", err)
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
		env := cloneEnv(svc.env)
		env.Open = func(string, *trace.Tracer, trace.Context) (RemoteFile, error) {
			return &lyingFile{fakeFile{make([]byte, 1<<10)}, claimed}, nil
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := runTask(t, analysis(env), &wq.Task{ID: 7, Args: argsOf(wrapper.Args{LFN: "/store/liar.root", Mode: mode, Output: "/out/liar", EventSize: 256})})
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
	if rep.Metrics.Events != 4 || got > bufpool.MaxSized+4<<20 {
		t.Errorf("stream mode, 1 TiB claimed, 1 KiB served: %g events, %d bytes allocated; want the 4 events served and at most one largest-class buffer", rep.Metrics.Events, got)
	}
}

// choppyFile is a replica that answers at most 1,000 bytes per read, as a
// server may: fewer than asked is not the end of the file.
type choppyFile struct{ fakeFile }

func (f *choppyFile) ReadAt(p []byte, off int64) (int, error) {
	return f.fakeFile.ReadAt(p[:min(len(p), 1000)], off)
}

// TestAnalysisFromAChoppyReplica: a short answer that ends mid-event is
// continued, not dropped, so stream mode reduces the same events as stage
// mode and ProcessAll and counts the same bytes in.
func TestAnalysisFromAChoppyReplica(t *testing.T) {
	svc := startServices(t)
	k, _ := NewKernel(256, 1)
	data := k.GenerateEvents(200, stats.NewRand(5))
	want, _ := k.ProcessAll(data)
	env := cloneEnv(svc.env)
	env.Open = func(string, *trace.Tracer, trace.Context) (RemoteFile, error) {
		return &choppyFile{fakeFile{data}}, nil
	}
	for i, mode := range []string{"stream", "stage"} {
		out := "/out/choppy-" + mode
		rep := runTask(t, analysis(env), &wq.Task{ID: int64(40 + i), Args: argsOf(wrapper.Args{LFN: "/store/choppy.root", Mode: mode, Output: out, EventSize: 256})})
		if rep.ExitCode != 0 {
			t.Fatalf("%s mode: report %+v", mode, rep)
		}
		got, err := svc.chirpFS.ReadFile(out)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s mode: digests differ from ProcessAll's (err %v)", mode, err)
		}
		if rep.Metrics.Events != 200 || rep.Metrics.BytesIn != float64(len(data)) {
			t.Errorf("%s mode: %g events, %g bytes in; want 200 and %d", mode, rep.Metrics.Events, rep.Metrics.BytesIn, len(data))
		}
	}
}

func TestAnalysisSquidOutageIsSoftwareFailure(t *testing.T) {
	svc := startServices(t)
	// Point the env at a dead proxy: software setup must fail with its code.
	env := cloneEnv(svc.env)
	env.ProxyURL = "http://127.0.0.1:1" // nothing listens
	exec := analysis(env)
	rep := runTask(t, exec, &wq.Task{ID: 5, Args: argsOf(wrapper.Args{LFN: "/x"})})
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
	rep := runTask(t, exec, &wq.Task{ID: 6, Args: argsOf(wrapper.Args{Events: 25, Seed: 7, Pileup: "/pileup/minbias.root", Output: "/out/sim0.root", EventSize: 128})})
	if rep.ExitCode != 0 {
		t.Fatalf("simulation failed: %+v", rep)
	}
	if rep.Metrics.Events != 25 {
		t.Errorf("events = %g", rep.Metrics.Events)
	}
	if rep.Metrics.BytesIn != float64(len(pileup)) {
		t.Errorf("pile-up bytes = %g", rep.Metrics.BytesIn)
	}
	out, err := svc.chirpFS.ReadFile("/out/sim0.root")
	if err != nil || len(out) == 0 {
		t.Fatalf("simulation output missing: %v", err)
	}
	// Deterministic given the seed.
	rep2 := runTask(t, exec, &wq.Task{ID: 7, Args: argsOf(wrapper.Args{Events: 25, Seed: 7, Pileup: "/pileup/minbias.root", Output: "/out/sim1.root", EventSize: 128})})
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
	rep := runTask(t, exec, &wq.Task{ID: 8})
	if rep.Failed != wrapper.SegExecute {
		t.Fatalf("report = %+v", rep)
	}
}

// TestUnbuildableArgsFailEnvInit: an argument record that decodes but
// describes no kernel (a negative event size; a work factor below one is
// read as one) fails the task in env_init, before any service is touched,
// instead of running it on defaults. A record that does not decode never
// reaches an executor: it breaks the worker's connection
// (wq's TestMalformedArgsBreakConnection).
func TestUnbuildableArgsFailEnvInit(t *testing.T) {
	env := &Env{}
	for name, exec := range map[string]taskFunc{"analysis": analysis(env), "simulation": simulation(env)} {
		rep := runTask(t, exec, &wq.Task{ID: 9, Args: &wrapper.Args{LFN: "/x", Events: 1, EventSize: -1}})
		if rep.Failed != wrapper.SegEnvInit || rep.ExitCode != wrapper.SegEnvInit.Code() {
			t.Errorf("%s with event size -1: report %+v, want an env_init failure", name, rep)
		}
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
		lo, hi := eventRange(k, size, &wrapper.Args{SkipEvents: c.skip, MaxEvents: c.max})
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
	svc.redir.Register("/store/ranged.root", mustStore(svc.dataSrv, "/store/ranged.root", data))
	exec := analysis(svc.env)
	rep := runTask(t, exec, &wq.Task{ID: 30, Args: argsOf(wrapper.Args{LFN: "/store/ranged.root", Mode: "stream", SkipEvents: 10, MaxEvents: 15, Output: "/out/ranged", EventSize: 128})})
	if rep.ExitCode != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Metrics.Events != 15 {
		t.Errorf("events = %g, want 15", rep.Metrics.Events)
	}
	// The output must equal the reduction of exactly events 10..24.
	want, _ := k.ProcessAll(data[10*128 : 25*128])
	got, err := svc.chirpFS.ReadFile("/out/ranged")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("sub-range output wrong: %v", err)
	}
	// Stage mode over the same range produces identical output.
	rep = runTask(t, exec, &wq.Task{ID: 31, Args: argsOf(wrapper.Args{LFN: "/store/ranged.root", Mode: "stage", SkipEvents: 10, MaxEvents: 15, Output: "/out/ranged-staged", EventSize: 128})})
	if rep.ExitCode != 0 {
		t.Fatal("staged sub-range failed")
	}
	got2, _ := svc.chirpFS.ReadFile("/out/ranged-staged")
	if !bytes.Equal(got2, want) {
		t.Fatal("staged sub-range differs from streamed")
	}
}

// TestStageOutAfterMasterLostWritesNothing: an attempt whose worker lost
// its master reaches stage-out after the master has requeued the task.
// Its put must not reach the storage element, not even as a spool file.
func TestStageOutAfterMasterLostWritesNothing(t *testing.T) {
	root := t.TempDir()
	fs, err := chirp.NewLocalFS(root)
	if err != nil {
		t.Fatal(err)
	}
	se, err := chirp.NewServer(fs, "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	env := &Env{ChirpAddr: se.Addr()}
	defer env.Close()

	m, err := wq.NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	reports := make(chan *wrapper.Report, 1)
	reg := wq.Registry{"zombie": func(ctx *wq.ExecContext) error {
		close(entered)
		for deadline := time.Now().Add(10 * time.Second); ctx.Err() == nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				break
			}
		}
		var args wrapper.Args
		if _, err := initTask(ctx.Task.Args, &args); err != nil {
			return err
		}
		rep := new(wrapper.Report)
		wrapper.Run(rep, new(wrapper.StepContext), nil, nil, trace.Context{}, wrapper.Step{Segment: wrapper.SegStageOut,
			Run: func(c *wrapper.StepContext) error { return env.stageOut(ctx, c, args.Output, []byte("late")) }})
		reports <- rep
		return nil
	}}
	w, err := wq.NewWorker(m.Addr(), "zombie", 1, t.TempDir(), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := m.Submit(&wq.Task{Func: "zombie", Args: argsOf(wrapper.Args{Output: "/store/user/late/out.root"})}); err != nil {
		t.Fatal(err)
	}
	<-entered
	m.Close()
	if rep := <-reports; rep.ExitCode == 0 {
		t.Fatalf("stage-out after the master was lost succeeded: %+v", rep)
	}
	var left []string
	filepath.WalkDir(root, func(path string, d iofs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			left = append(left, path)
		}
		return err
	})
	if len(left) != 0 {
		t.Fatalf("the abandoned attempt wrote to the storage element: %v", left)
	}
}

// cloneEnv returns a fresh Env with e's configuration and none of its
// lazily-built pool state: Env holds sync.Onces and must not be copied by
// value.
func cloneEnv(e *Env) *Env {
	return &Env{
		ProxyURL:      e.ProxyURL,
		Repo:          e.Repo,
		ReleasePath:   e.ReleasePath,
		Cache:         e.Cache,
		Open:          e.Open,
		ChirpAddr:     e.ChirpAddr,
		ConditionsTag: e.ConditionsTag,
		Fault:         e.Fault,
		ChirpRetry:    e.ChirpRetry,
		Telemetry:     e.Telemetry,
	}
}

// mustStore stores content under lfn on s and returns the replica to
// register, panicking if the spool cannot be written: a fixture cannot
// go on without its data.
func mustStore(s *xrootd.DataServer, lfn string, content []byte) xrootd.Replica {
	rep, err := s.StoreFrom(lfn, func(w io.Writer) error {
		_, err := w.Write(content)
		return err
	})
	if err != nil {
		panic(err)
	}
	return rep
}
