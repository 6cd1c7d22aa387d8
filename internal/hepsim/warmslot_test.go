package hepsim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"lobster/internal/bufpool"
	"lobster/internal/stats"
	"lobster/internal/telemetry"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
)

// generateByteLoop is GenerateEvents as it was before the word stores:
// the reference the faster kernel must match byte for byte.
func generateByteLoop(n int, rng *stats.Rand) []byte {
	data := make([]byte, n)
	for i := 0; i < len(data); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < len(data); j++ {
			data[i+j] = byte(v >> (8 * j))
		}
	}
	return data
}

func TestGenerateMatchesByteLoop(t *testing.T) {
	// Event size 1 makes n the buffer length: every tail length 0..7
	// twice over, one odd event size, then more than a dataset chunk with
	// a tail.
	sizes := []struct{ eventSize, n int }{{1001, 3}, {1, 1<<20 + 3}}
	for n := 0; n <= 17; n++ {
		sizes = append(sizes, struct{ eventSize, n int }{1, n})
	}
	for _, c := range sizes {
		k, _ := NewKernel(c.eventSize, 1)
		gen, loop := stats.NewRand(11), stats.NewRand(11)
		got := k.GenerateEvents(c.n, gen)
		want := generateByteLoop(c.n*c.eventSize, loop)
		if !bytes.Equal(got, want) {
			t.Errorf("event size %d × %d events: bytes differ from the byte loop", c.eventSize, c.n)
		}
		// The generator's state went back to it: the next draw agrees.
		if g, l := gen.Uint64(), loop.Uint64(); g != l {
			t.Errorf("event size %d × %d events: next draw %#x, the byte loop's %#x", c.eventSize, c.n, g, l)
		}
	}
}

func TestOverlayMatchesByteLoop(t *testing.T) {
	for _, eventSize := range []int{1, 7, 8, 17, 1001} {
		k, _ := NewKernel(eventSize, 1)
		pileup := k.GenerateEvents(3, stats.NewRand(2))
		signal := k.GenerateEvents(10, stats.NewRand(1))
		want := append([]byte(nil), signal...)
		for i := 0; i < 10; i++ {
			for j := 0; j < eventSize; j++ {
				want[i*eventSize+j] ^= pileup[(i%3)*eventSize+j]
			}
		}
		if err := k.OverlayPileup(signal, pileup); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(signal, want) {
			t.Errorf("event size %d: overlay differs from the byte loop", eventSize)
		}
	}
}

func TestAppendDigestsAllocatesNothing(t *testing.T) {
	k, _ := NewKernel(256, 4)
	data := k.GenerateEvents(64, stats.NewRand(3))
	want, _ := k.ProcessAll(data)
	dst := make([]byte, 0, k.DigestBytes(len(data)))
	allocs := testing.AllocsPerRun(100, func() {
		out, n := k.AppendDigests(dst, data)
		if n != 64 || len(out) != len(want) {
			t.Fatalf("reduced %d events into %d bytes", n, len(out))
		}
	})
	if allocs != 0 {
		t.Errorf("AppendDigests into a sized dst: %v allocs/op, want 0", allocs)
	}
	if out, _ := k.AppendDigests(dst, data); !bytes.Equal(out, want) {
		t.Error("AppendDigests and ProcessAll disagree")
	}
}

// TestSimulationChunkedMatchesWhole pins the chunked execute segment to
// the whole-sample computation the oracle does: an event count that is
// not a multiple of the chunk, an odd event size, and a pile-up sample
// whose length shares no factor with the chunk.
func TestSimulationChunkedMatchesWhole(t *testing.T) {
	svc := startServices(t)
	k, _ := NewKernel(99, 2)
	pileup := k.GenerateEvents(7, stats.NewRand(9))
	if err := svc.chirpFS.WriteFile("/pileup/odd.root", pileup); err != nil {
		t.Fatal(err)
	}
	rep := runTask(t, simulation(svc.env), &wq.Task{ID: 40, Args: argsOf(wrapper.Args{Events: 150, Seed: 5, Pileup: "/pileup/odd.root", Output: "/out/chunked.root", EventSize: 99, Work: 2})})
	if rep.ExitCode != 0 {
		t.Fatalf("simulation failed: %+v", rep)
	}
	signal := k.GenerateEvents(150, stats.NewRand(5))
	if err := k.OverlayPileup(signal, pileup); err != nil {
		t.Fatal(err)
	}
	want, _ := k.ProcessAll(signal)
	got, err := svc.chirpFS.ReadFile("/out/chunked.root")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("chunked simulation output differs from the whole-sample one (%v)", err)
	}
}

// TestConcurrentTasksMatchSerial runs stage- and stream-mode tasks on
// one Env from two slots at once, again and again so every borrowed
// buffer changes hands, and checks each output against the reduction
// computed directly. Under -race it also shows no buffer goes back to
// the pool while something can still read it.
func TestConcurrentTasksMatchSerial(t *testing.T) {
	svc := startServices(t)
	k, _ := NewKernel(128, 1)
	const events = 400
	data := k.GenerateEvents(events, stats.NewRand(31))
	svc.redir.Register("/store/shared.root", mustStore(svc.dataSrv, "/store/shared.root", data))
	exec := analysis(svc.env)

	const slots, rounds = 2, 12
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sandbox := t.TempDir()
			for r := 0; r < rounds; r++ {
				// Ranges of different lengths, so a slot is handed a
				// buffer another task of another size just gave back.
				skip, max := (7*r+13*s)%200, 50+(31*r+17*s)%150
				mode := []string{"stage", "stream"}[(r+s)%2]
				out := fmt.Sprintf("/out/conc-%d-%d", s, r)
				rep := runTaskIn(t, sandbox, exec, &wq.Task{ID: int64(100 + s*rounds + r), Args: argsOf(wrapper.Args{LFN: "/store/shared.root", Mode: mode, Output: out, EventSize: 128, SkipEvents: skip, MaxEvents: max})})
				if rep.ExitCode != 0 {
					t.Errorf("slot %d round %d: %+v", s, r, rep)
					return
				}
				want, _ := k.ProcessAll(data[skip*128 : (skip+max)*128])
				got, err := svc.chirpFS.ReadFile(out)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("slot %d round %d (%s): output differs from the serial reduction (%v)", s, r, mode, err)
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestPileupSampleKeptAtWorkerScope: the first simulation task downloads
// the pile-up sample, the tasks after it ask the storage element one
// stat each and download nothing — until the sample is republished, even
// at the same size, which the very next task overlays.
func TestPileupSampleKeptAtWorkerScope(t *testing.T) {
	svc := startServices(t)
	k, _ := NewKernel(64, 1)
	exec := simulation(svc.env)
	publish := func(seed uint64) []byte {
		sample := k.GenerateEvents(32, stats.NewRand(seed))
		if err := svc.chirpFS.WriteFile("/pileup/minbias.root", sample); err != nil {
			t.Fatal(err)
		}
		return sample
	}
	// run executes one task and returns what it cost the storage element.
	run := func(id int64, sample []byte) (requests, bytesOut int64) {
		t.Helper()
		before := svc.chirpSrv.Stats()
		out := fmt.Sprintf("/out/sim-%d", id)
		rep := runTask(t, exec, &wq.Task{ID: id, Args: argsOf(wrapper.Args{Events: 100, Seed: 9, Pileup: "/pileup/minbias.root", Output: out, EventSize: 64})})
		if rep.ExitCode != 0 {
			t.Fatalf("task %d: %+v", id, rep)
		}
		signal := k.GenerateEvents(100, stats.NewRand(9))
		if err := k.OverlayPileup(signal, sample); err != nil {
			t.Fatal(err)
		}
		want, _ := k.ProcessAll(signal)
		if got, err := svc.chirpFS.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Errorf("task %d overlaid another sample than the one published (%v)", id, err)
		}
		after := svc.chirpSrv.Stats()
		return after.Requests - before.Requests, after.BytesOut - before.BytesOut
	}

	sample := publish(1)
	if reqs, out := run(1, sample); reqs != 3 || out != int64(len(sample)) {
		t.Errorf("cold task: %d requests, %d bytes out; want stat+get+put and the %d-byte sample", reqs, out, len(sample))
	}
	for id := int64(2); id <= 4; id++ {
		if reqs, out := run(id, sample); reqs != 2 || out != 0 {
			t.Errorf("hot task %d: %d requests, %d bytes out; want stat+put and no payload", id, reqs, out)
		}
	}
	sample = publish(2) // same path, same size, other content
	if reqs, out := run(5, sample); reqs != 3 || out != int64(len(sample)) {
		t.Errorf("task after a republish: %d requests, %d bytes out; want the new sample fetched once", reqs, out)
	}
	if reqs, out := run(6, sample); reqs != 2 || out != 0 {
		t.Errorf("task after the refetch: %d requests, %d bytes out; want stat+put", reqs, out)
	}
}

// TestHotAnalysisTaskTouchesNoFiles: with chirp stage-out, the second
// task of a worker process asks for no sandbox and probes no directory;
// its report exists only in memory. Without a storage element the output
// has to be a sandbox file, and the executor asks for the sandbox itself.
func TestHotAnalysisTaskTouchesNoFiles(t *testing.T) {
	svc := startServices(t)
	k, _ := NewKernel(128, 1)
	data := k.GenerateEvents(16, stats.NewRand(4))
	svc.redir.Register("/store/f.root", mustStore(svc.dataSrv, "/store/f.root", data))
	scratch := t.TempDir()
	exec := Analysis(svc.env)
	run := func(env *Env, id int64, output string) string {
		t.Helper()
		sandbox := filepath.Join(scratch, fmt.Sprintf("task-%d", id)) // as a worker names it; never created
		ctx := &wq.ExecContext{Task: &wq.Task{ID: id, Args: argsOf(wrapper.Args{LFN: "/store/f.root", EventSize: 128, Output: output})}, Sandbox: sandbox}
		if err := exec(ctx); err != nil {
			t.Fatalf("task %d: %v", id, err)
		}
		return sandbox
	}
	run(svc.env, 1, "/out/a") // pays the probe
	before := wq.FilesCreated()
	for id := int64(2); id <= 5; id++ {
		run(svc.env, id, fmt.Sprintf("/out/%d", id))
	}
	if n := wq.FilesCreated() - before; n != 0 {
		t.Errorf("four hot tasks asked for %d sandboxes, want 0", n)
	}
	if entries, _ := os.ReadDir(scratch); len(entries) != 0 {
		t.Errorf("scratch directory holds %d entries after tasks that stage out over chirp", len(entries))
	}

	local := cloneEnv(svc.env)
	local.ChirpAddr = ""
	exec = Analysis(local)
	sandbox := run(local, 6, "")
	if _, err := os.Stat(filepath.Join(sandbox, "output.root")); err != nil {
		t.Errorf("no storage element: output not left in the sandbox: %v", err)
	}
	if n := wq.FilesCreated() - before; n != 1 {
		t.Errorf("the no-chirp stage-out counted %d sandbox requests, want 1", n)
	}
}

// TestScratchProbeRemembersOnlySuccess: a probe that fails is run again
// by the next task; one that has passed is not.
func TestScratchProbeRemembersOnlySuccess(t *testing.T) {
	env := &Env{}
	dir := filepath.Join(t.TempDir(), "worker")
	ctx := &wq.ExecContext{Sandbox: filepath.Join(dir, "task-1")}
	if env.probeScratch(ctx) == nil {
		t.Fatal("probe passed in a directory that does not exist")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := env.probeScratch(ctx); err != nil {
		t.Fatalf("probe after the directory came back: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("probe left %d entries behind", len(entries))
	}
	os.Remove(dir)
	if err := env.probeScratch(ctx); err != nil {
		t.Errorf("a probe that had passed ran again: %v", err)
	}
}

// hotTask measures one task on a slot whose earlier tasks already paid
// for the release, the catalogs, the connections and the buffers. B/op
// and allocs/op are pinned in BENCH_dataplane.json: per-task garbage
// that comes back fails `make bench-guard`. So do files/op and
// manifest-fetches/op, both pinned at zero: a hot task asks for no
// sandbox and rides the manifest lease.
func hotTask(b *testing.B, exec func(*Env) wq.Executor, args wrapper.Args) {
	svc := startServices(b)
	reg := telemetry.NewRegistry()
	svc.env.Cache.Instrument(reg)
	fetched := reg.CounterVec("lobster_parrot_manifest_total", "", "outcome").With("fetched")
	k, _ := NewKernel(1024, 1)
	data := k.GenerateEvents(4096, stats.NewRand(3)) // 4 MiB
	svc.redir.Register("/store/hot.root", mustStore(svc.dataSrv, "/store/hot.root", data))
	if err := svc.chirpFS.WriteFile("/pileup/hot.root", data[:256<<10]); err != nil {
		b.Fatal(err)
	}
	run, sandbox := exec(svc.env), b.TempDir()
	args.EventSize, args.Output = 1024, "/out/hot"
	task := &wq.Task{ID: 1, Args: argsOf(args)}
	for i := 0; i < 3; i++ { // cold start, then fill the caches and the sized pools
		if err := run(&wq.ExecContext{Task: task, Sandbox: sandbox, WorkerName: "bench"}); err != nil {
			b.Fatalf("warm-up task failed: %v", err)
		}
	}
	bufpool.Warm(4)
	warmSized(4<<20, chunkEvents*1024)
	files0, fetched0 := wq.FilesCreated(), fetched.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(&wq.ExecContext{Task: task, Sandbox: sandbox, WorkerName: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wq.FilesCreated()-files0)/float64(b.N), "files/op")
	b.ReportMetric(float64(fetched.Value()-fetched0)/float64(b.N), "manifest-fetches/op")
}

// warmSized does for the sized classes what bufpool.Warm does for the
// chunk pool: one buffer per P beyond the one in use, held together and
// returned together, so a goroutine that moves to another P still
// borrows instead of allocating and B/op repeats run to run.
func warmSized(sizes ...int) {
	for _, n := range sizes {
		held := make([]*[]byte, 1+runtime.GOMAXPROCS(0))
		for i := range held {
			held[i] = bufpool.GetSized(n)
		}
		for _, b := range held {
			bufpool.PutSized(b)
		}
	}
}

func BenchmarkAnalysisTaskHot(b *testing.B) {
	for _, mode := range []string{"stream", "stage"} {
		b.Run(mode, func(b *testing.B) {
			hotTask(b, Analysis, wrapper.Args{LFN: "/store/hot.root", Mode: mode, Run: 42})
		})
	}
}

func BenchmarkSimulationTaskHot(b *testing.B) {
	hotTask(b, Simulation, wrapper.Args{Events: 4096, Seed: 7, Pileup: "/pileup/hot.root"})
}
