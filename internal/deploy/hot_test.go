package deploy

import (
	"testing"
	"time"

	"lobster/internal/core"
	"lobster/internal/hepsim"
	"lobster/internal/stats"
	"lobster/internal/telemetry"
	"lobster/internal/wq"
)

// TestStackHotTasksCostNoRoundTripsNoFiles pins what a task on a warm
// worker may still cost the services around it, in counters that do not
// depend on timing: nothing at the CVMFS origin (the manifest is leased,
// conditions are a squid hit), no sandbox, no pile-up download (a stat
// instead), and no chirp dial per merge task.
func TestStackHotTasksCostNoRoundTripsNoFiles(t *testing.T) {
	reg := telemetry.NewRegistry()
	st, err := Start(Options{
		Files: 4, LumisPerFile: 4, EventsPerFile: 16,
		Workers: 1, CoresPerWorker: 2,
		ScratchDir: t.TempDir(), Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	run := func(cfg core.Config) *core.RunReport {
		t.Helper()
		cfg.EventSize = st.EventSize()
		if cfg.Kind == core.KindAnalysis {
			cfg.Dataset = st.Dataset.Name
		}
		l, err := core.New(cfg, st.Services)
		if err != nil {
			t.Fatal(err)
		}
		l.SetResultTimeout(time.Minute)
		rep, err := l.Run()
		if err != nil || !rep.Succeeded() {
			t.Fatalf("%s: %v %+v", cfg.Name, err, rep)
		}
		return rep
	}

	// Analysis: the first workflow warms the worker, the second is hot.
	run(core.Config{Name: "warm", Kind: core.KindAnalysis})
	proxy, files := st.Proxy.Stats(), wq.FilesCreated()
	hot := run(core.Config{Name: "hot", Kind: core.KindAnalysis})
	after := st.Proxy.Stats()
	if n := (after.Misses - proxy.Misses) + (after.Coalesced - proxy.Coalesced); n != 0 {
		t.Errorf("%d hot tasks cost the origin %d round trips, want 0", hot.TasksRun, n)
	}
	if n := after.Hits - proxy.Hits; n != int64(hot.TasksRun) {
		t.Errorf("%d hot tasks made %d squid hits, want one each (conditions)", hot.TasksRun, n)
	}
	if n := wq.FilesCreated() - files; n != 0 {
		t.Errorf("%d hot tasks created %d sandboxes and files, want 0", hot.TasksRun, n)
	}
	manifest := reg.CounterVec("lobster_parrot_manifest_total", "", "outcome")
	// The two slots may both find the cold worker without a lease.
	if fetched, leased := manifest.With("fetched").Value(), manifest.With("leased").Value(); fetched > 2 || leased < int64(hot.TasksRun) {
		t.Errorf("manifest fetched %d times and leased %d across two workflows, want one fetch per cold slot at most", fetched, leased)
	}

	// Merging: however many merge tasks run, they share the four
	// connections the first ones dialled. The storage element counts every
	// dial; besides the merge pool only stage-out's pool can add one here,
	// a second connection if both slots never staged out at once before.
	conns := st.ChirpSrv.Stats().Connections
	merging := core.Config{Kind: core.KindAnalysis, MergeMode: core.MergeSequential, MergeTargetBytes: 64}
	merging.Name = "merge-a"
	merged := run(merging).MergesRun
	merging.Name = "merge-b"
	merged += run(merging).MergesRun
	if dialled := st.ChirpSrv.Stats().Connections - conns; merged < 12 || dialled > 4+1 {
		t.Errorf("%d merge tasks: the storage element saw %d dials, want the merge pool's 4 at most", merged, dialled)
	}

	// Simulation: after the first task only a stat asks about the sample.
	k, err := hepsim.NewKernel(st.EventSize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sample := k.GenerateEvents(16, stats.NewRand(5))
	if err := st.ChirpFS.WriteFile("/pileup/minbias.root", sample); err != nil {
		t.Fatal(err)
	}
	sim := core.Config{Kind: core.KindSimulation, TotalEvents: 160, EventsPerTasklet: 20, PileupPath: "/pileup/minbias.root"}
	sim.Name = "sim-warm"
	run(sim)
	chirp := st.ChirpSrv.Stats()
	sim.Name = "sim-hot"
	tasks := int64(run(sim).TasksRun)
	now := st.ChirpSrv.Stats()
	if out := now.BytesOut - chirp.BytesOut; out != 0 {
		t.Errorf("%d hot simulation tasks downloaded %d bytes, want 0 (sample is %d bytes)", tasks, out, len(sample))
	}
	if reqs := now.Requests - chirp.Requests; reqs != 2*tasks {
		t.Errorf("%d hot simulation tasks made %d chirp requests, want a stat and a put each", tasks, reqs)
	}
}
