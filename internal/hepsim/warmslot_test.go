package hepsim

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"lobster/internal/bufpool"
	"lobster/internal/stats"
	"lobster/internal/wq"
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
	// twice over, then one odd event size.
	sizes := []struct{ eventSize, n int }{{1001, 3}}
	for n := 0; n <= 17; n++ {
		sizes = append(sizes, struct{ eventSize, n int }{1, n})
	}
	for _, c := range sizes {
		k, _ := NewKernel(c.eventSize, 1)
		got := k.GenerateEvents(c.n, stats.NewRand(11))
		want := generateByteLoop(c.n*c.eventSize, stats.NewRand(11))
		if !bytes.Equal(got, want) {
			t.Errorf("event size %d × %d events: bytes differ from the byte loop", c.eventSize, c.n)
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
	rep := runTask(t, Simulation(svc.env), &wq.Task{ID: 40, Args: map[string]string{
		"events": "150", "seed": "5", "pileup": "/pileup/odd.root",
		"output": "/out/chunked.root", "event_size": "99", "work": "2",
	}})
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
	svc.redir.Register("/store/shared.root", svc.dataSrv.Store("/store/shared.root", data))
	exec := Analysis(svc.env)

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
				rep := runTaskIn(t, sandbox, exec, &wq.Task{ID: int64(100 + s*rounds + r), Args: map[string]string{
					"lfn": "/store/shared.root", "mode": mode, "output": out, "event_size": "128",
					"skip_events": fmt.Sprint(skip), "max_events": fmt.Sprint(max),
				}})
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

// hotTask measures one task on a slot whose earlier tasks already paid
// for the release, the catalogs, the connections and the buffers. B/op
// and allocs/op are pinned in BENCH_dataplane.json: per-task garbage
// that comes back fails `make bench-guard`.
func hotTask(b *testing.B, exec func(*Env) wq.Executor, args map[string]string) {
	svc := startServices(b)
	k, _ := NewKernel(1024, 1)
	data := k.GenerateEvents(4096, stats.NewRand(3)) // 4 MiB
	svc.redir.Register("/store/hot.root", svc.dataSrv.Store("/store/hot.root", data))
	if err := svc.chirpFS.WriteFile("/pileup/hot.root", data[:256<<10]); err != nil {
		b.Fatal(err)
	}
	run, sandbox := exec(svc.env), b.TempDir()
	task := &wq.Task{ID: 1, Args: args}
	args["event_size"], args["output"] = "1024", "/out/hot"
	for i := 0; i < 3; i++ { // cold start, then fill the caches and the sized pools
		if rep := runTaskIn(b, sandbox, run, task); rep.ExitCode != 0 {
			b.Fatalf("warm-up task failed: %+v", rep)
		}
	}
	bufpool.Warm(4)
	warmSized(4<<20, chunkEvents*1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(&wq.ExecContext{Task: task, Sandbox: sandbox, WorkerName: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
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
			hotTask(b, Analysis, map[string]string{"lfn": "/store/hot.root", "mode": mode, "run": "42"})
		})
	}
}

func BenchmarkSimulationTaskHot(b *testing.B) {
	hotTask(b, Simulation, map[string]string{"events": "4096", "seed": "7", "pileup": "/pileup/hot.root"})
}
