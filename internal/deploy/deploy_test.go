package deploy

import (
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"lobster/internal/core"
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
// xrootd and chirp connections between them; Close must hang all of them
// up. The collector is off for the test, so a connection left to its
// finalizer shows as the leak it is.
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
		}, st.Services)
		if err != nil {
			t.Fatal(err)
		}
		l.SetResultTimeout(time.Minute)
		if rep, err := l.Run(); err != nil || !rep.Succeeded() {
			t.Fatalf("run: %v %+v", err, rep)
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
