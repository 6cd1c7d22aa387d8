package lobster

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"lobster/internal/core"
	"lobster/internal/deploy"
	"lobster/internal/monitor"
	"lobster/internal/store"
)

// workflowShape is one seeded workflow BenchmarkWorkflow runs whole.
type workflowShape struct {
	name string
	opts deploy.Options
	cfg  core.Config
}

// workflowShapes are the end-to-end benchmark's small-tasks workload as it
// is, 512 one-event analysis tasks, and its stage-merge workload reduced
// to 64 staged tasks whose 64 KiB outputs merge four at a time while the
// workflow runs, so merge records cross wq too.
var workflowShapes = []workflowShape{
	{
		name: "small-tasks",
		opts: deploy.Options{Files: 16, LumisPerFile: 32, EventsPerFile: 32, EventBytes: 1024, Workers: 1, CoresPerWorker: 2},
		cfg:  core.Config{Kind: core.KindAnalysis, AccessMode: core.AccessStream, EventSize: 1024, Work: 1},
	},
	{
		name: "stage-merge",
		opts: deploy.Options{Files: 32, LumisPerFile: 2, EventsPerFile: 16384, EventBytes: 32, Workers: 1, CoresPerWorker: 2},
		cfg: core.Config{Kind: core.KindAnalysis, AccessMode: core.AccessStage, EventSize: 32, Work: 1,
			MergeMode: core.MergeInterleaved, MergeTargetBytes: 256 << 10},
	},
}

// BenchmarkWorkflow runs whole workflows through the production assembly
// (deploy.Start, then core.New(...).Run() with a Lobster DB and a
// monitor), untraced, on one stack per shape that a first, unmeasured
// workflow has warmed. One op is one workflow. It reports what the
// workflows cost per wq task (processing tasks and merges alike):
// allocated bytes (B/task) and allocations (allocs/task) of the whole
// process, which hosts every server, worker and the master, and the
// task- and result-frame body bytes the master sent and received
// (frame-B/task). A workflow has a fixed number of tasks, so none of
// these depends on how fast the host runs it; BENCH_e2e.json bounds
// them. The collector is off from the warm-up on, so a collection that
// empties the sync.Pools behind bufpool cannot charge their refill to
// one workflow.
func BenchmarkWorkflow(b *testing.B) {
	for _, w := range workflowShapes {
		b.Run(w.name, func(b *testing.B) {
			opts := w.opts
			opts.Seed = 1
			st, err := deploy.Start(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			db, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			pass := 0
			run := func() *core.RunReport {
				cfg := w.cfg
				cfg.Name = fmt.Sprintf("%s-p%d", w.name, pass)
				cfg.OutputDir = "/store/user/" + cfg.Name
				cfg.Dataset = st.Dataset.Name
				pass++
				svc := st.Services
				svc.DB, svc.Monitor = db, monitor.New()
				l, err := core.New(cfg, svc)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := l.Run()
				if err != nil || !rep.Succeeded() {
					b.Fatalf("%s: %+v, %v", cfg.Name, rep, err)
				}
				return rep
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run() // warm-up: caches, pools and connections
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			bytes0, allocs0, stats0 := ms.TotalAlloc, ms.Mallocs, st.Services.Master.Stats()
			tasks := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := run()
				tasks += rep.TasksRun + rep.MergesRun
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			stats := st.Services.Master.Stats()
			n := float64(tasks)
			b.ReportMetric(float64(ms.TotalAlloc-bytes0)/n, "B/task")
			b.ReportMetric(float64(ms.Mallocs-allocs0)/n, "allocs/task")
			b.ReportMetric(float64(stats.BytesSent-stats0.BytesSent+stats.BytesReceived-stats0.BytesReceived)/n, "frame-B/task")
			b.ReportMetric(n/float64(b.N), "tasks/op")
		})
	}
}
