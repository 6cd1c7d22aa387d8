package deploy

import (
	"hash/crc32"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"lobster/internal/core"
	"lobster/internal/dbs"
	"lobster/internal/hepsim"
	"lobster/internal/stats"
	"lobster/internal/xrootd"
)

func TestStackEndToEnd(t *testing.T) {
	st, err := Start(Options{
		Files: 2, LumisPerFile: 2, EventsPerFile: 8,
		Workers: 1, CoresPerWorker: 2,
		ScratchDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if st.Dataset.TotalEvents() != 16 {
		t.Errorf("dataset events = %d", st.Dataset.TotalEvents())
	}
	l, err := core.New(core.Config{
		Name: "smoke", Kind: core.KindAnalysis, Dataset: st.Dataset.Name,
		EventSize: st.EventSize(),
	}, st.Services)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(time.Minute)
	rep, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("report = %+v", rep)
	}
	// Every component saw traffic.
	if st.Proxy.Stats().Misses == 0 {
		t.Error("squid never consulted")
	}
	if st.Dashboard.Volume("lobster") == 0 {
		t.Error("federation dashboard empty")
	}
	if st.ChirpSrv.Stats().BytesIn == 0 {
		t.Error("storage element received nothing")
	}
	if st.Services.Monitor.Len() == 0 {
		t.Error("monitor empty")
	}
}

// TestStackCloseLeavesNothingOpen: a stack that ran tasks holds parked
// xrootd and chirp connections between them — the executors' pool and
// the merge tasks' own — and its data server one open, unlinked spool
// file; Close must hang up and close all of it. The collector is off for
// the test, so a descriptor left to its finalizer shows as the leak it
// is.
func TestStackCloseLeavesNothingOpen(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(entries)
	}
	run := func() {
		st, err := Start(Options{
			Files: 2, LumisPerFile: 2, EventsPerFile: 8,
			Workers: 1, CoresPerWorker: 2,
			ScratchDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		l, err := core.New(core.Config{
			Name: "leak", Kind: core.KindAnalysis, Dataset: st.Dataset.Name,
			EventSize: st.EventSize(),
			MergeMode: core.MergeInterleaved, MergeTargetBytes: 64,
		}, st.Services)
		if err != nil {
			t.Fatal(err)
		}
		l.SetResultTimeout(time.Minute)
		if rep, err := l.Run(); err != nil || !rep.Succeeded() || rep.MergedFiles == 0 {
			t.Fatalf("run: %v %+v; want a run whose merge tasks used their pool", err, rep)
		}
	}
	run() // the first stack pays for whatever the process opens once
	beforeFDs, beforeG := fds(), runtime.NumGoroutine()
	run()
	deadline := time.Now().Add(5 * time.Second)
	for fds() > beforeFDs || runtime.NumGoroutine() > beforeG {
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d descriptors (were %d), %d goroutines (were %d)",
				fds(), beforeFDs, runtime.NumGoroutine(), beforeG)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseRemovesTheScratchItMade: a stack given no ScratchDir makes one
// under the temporary directory and Close takes it away again; a
// directory the caller named is the caller's to keep.
func TestCloseRemovesTheScratchItMade(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, named := range []string{"", t.TempDir()} {
		st, err := Start(Options{Files: 1, EventsPerFile: 8, Workers: 1, CoresPerWorker: 1, ScratchDir: named})
		if err != nil {
			t.Fatal(err)
		}
		scratch := st.Options.ScratchDir
		if _, err := os.Stat(scratch); err != nil {
			t.Fatalf("scratch directory while running: %v", err)
		}
		st.Close()
		if _, err := os.Stat(scratch); (err == nil) != (named != "") {
			t.Errorf("ScratchDir %q: after Close, stat %s: %v", named, scratch, err)
		}
	}
	if left, _ := os.ReadDir(os.Getenv("TMPDIR")); len(left) != 0 {
		t.Errorf("%d entries left under the temporary directory, first %s", len(left), left[0].Name())
	}
}

// TestDatasetBytesUnchanged: generating the dataset a chunk at a time
// into the data server's spool serves the bytes kernel.GenerateEvents
// produces for each whole file from the same seed — files larger than
// one chunk, and an event size that is not a multiple of the 8 bytes an
// RNG draw fills.
func TestDatasetBytesUnchanged(t *testing.T) {
	for _, eventBytes := range []int64{4096, 1001} {
		opts := Options{
			Files: 3, LumisPerFile: 1, EventsPerFile: 1100, EventBytes: eventBytes,
			Workers: 1, CoresPerWorker: 1, Seed: 7,
			ScratchDir: t.TempDir(),
		}
		st, err := Start(opts)
		if err != nil {
			t.Fatal(err)
		}
		// The generator's draws, as Start makes them.
		rng := stats.NewRand(opts.Seed)
		ds, err := dbs.Generate(dbs.GenConfig{
			Name: st.Dataset.Name, Files: opts.Files, EventsPerFile: opts.EventsPerFile,
			LumisPerFile: opts.LumisPerFile, EventBytes: opts.EventBytes,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := hepsim.NewKernel(int(eventBytes), 1)
		if err != nil {
			t.Fatal(err)
		}
		cl := &xrootd.Client{Redirector: st.Redirector}
		for _, f := range ds.Files {
			whole := kernel.GenerateEvents(f.Events, rng)
			rf, err := cl.Open(f.LFN)
			if err != nil {
				t.Fatal(err)
			}
			size, crc, ok, err := rf.Stat()
			rf.Close()
			if err != nil || !ok {
				t.Fatalf("stat %s: ok=%v err=%v", f.LFN, ok, err)
			}
			if want := crc32.ChecksumIEEE(whole); size != int64(len(whole)) || crc != want {
				t.Errorf("event size %d, %s: served %d bytes crc %08x, GenerateEvents gives %d bytes crc %08x",
					eventBytes, f.LFN, size, crc, len(whole), want)
			}
		}
		cl.Close()
		st.Close()
	}
}

// TestDatasetOffHeap: the dataset lives in the data server's spool, so
// bringing up a stack with 32 MiB of it leaves the heap where it was.
func TestDatasetOffHeap(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	st, err := Start(Options{
		Files: 4, LumisPerFile: 1, EventsPerFile: 2048, EventBytes: 4096,
		Workers: 1, CoresPerWorker: 1,
		ScratchDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if after := heap(); after > before+8<<20 {
		t.Errorf("heap grew %d MiB bringing up a 32 MiB dataset, want under 8", (after-before)>>20)
	}
}

func TestStackHDFSBackend(t *testing.T) {
	st, err := Start(Options{
		UseHDFS: true, Workers: 1, CoresPerWorker: 2,
		Files: 2, LumisPerFile: 1, EventsPerFile: 4,
		ScratchDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.HDFS == nil || st.Services.HDFS == nil {
		t.Fatal("HDFS backend not wired")
	}
	l, err := core.New(core.Config{
		Name: "hdfs-smoke", Kind: core.KindAnalysis, Dataset: st.Dataset.Name,
		EventSize: st.EventSize(), MergeMode: core.MergeHadoop, MergeTargetBytes: 64,
	}, st.Services)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResultTimeout(time.Minute)
	rep, err := l.Run()
	if err != nil || !rep.Succeeded() || rep.MergedFiles == 0 {
		t.Fatalf("hadoop-merge run: %v %+v", err, rep)
	}
	if st.HDFS.FileCount() == 0 {
		t.Error("no files on the HDFS storage element")
	}
}

func TestAddWorker(t *testing.T) {
	st, err := Start(Options{Workers: 1, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AddWorker(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Services.Master.Stats().WorkersConnected != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("second worker never connected: %+v", st.Services.Master.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
