// Command lobster runs a complete Lobster workload end-to-end on the real
// execution plane: it assembles the service stack in-process (CVMFS behind
// squid, XrootD federation, Chirp storage element, Work Queue master and
// workers), plans a workflow from a synthetic dataset, runs it with retries
// and merging, and prints the run report, the runtime breakdown, any
// monitoring diagnoses, and the alerts the default health rules raised
// over the run's own telemetry (each also an "alert" event on -event-log,
// with profiles under <event-log>.profiles/ for a rule that profiles).
//
// Usage:
//
//	lobster -kind analysis -files 8 -workers 4 -merge interleaved
//	lobster -kind simulation -events 2000
//	lobster -http 127.0.0.1:9099 ...            # serve /metrics
//	lobster -trace-log spans.jsonl ...          # record spans; analyze with lobster-trace
//	lobster -fault-plan storm.json ...          # replay a deterministic fault storm
//	lobster -top http://127.0.0.1:9099          # one-shot status of a live run
//	lobster -top http://127.0.0.1:9099 -watch   # live bottleneck dashboard
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"lobster/internal/core"
	"lobster/internal/deploy"
	"lobster/internal/faultinject"
	"lobster/internal/health"
	"lobster/internal/monitor"
	"lobster/internal/profiling"
	"lobster/internal/retry"
	"lobster/internal/store"
	"lobster/internal/tabulate"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
)

// options holds the command's flags.
type options struct {
	// The workflow and the stack it runs on.
	kind, access, merge                            string
	files, lumis, events, workers, cores, taskSize int
	mergeKB                                        float64
	seed                                           uint64
	dbdir, confPath                                string

	// Telemetry, tracing and the fault plane.
	httpAddr, evlogPath, trlogPath, faultPlanPath string
	pprofOn                                       bool
	evlogMax                                      int64
	trRate                                        float64
	faultSeed                                     uint64

	// Modes that do not run a workflow.
	watch    bool
	topURL   string
	interval time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.kind, "kind", "analysis", "workflow kind: analysis or simulation")
	flag.IntVar(&o.files, "files", 8, "dataset files (analysis)")
	flag.IntVar(&o.lumis, "lumis", 4, "lumisections per file")
	flag.IntVar(&o.events, "events", 40, "events per file (analysis) or total events (simulation)")
	flag.IntVar(&o.workers, "workers", 2, "worker processes")
	flag.IntVar(&o.cores, "cores", 4, "cores per worker")
	flag.IntVar(&o.taskSize, "task-size", 2, "tasklets per task")
	flag.StringVar(&o.access, "access", "stream", "data access mode: stream or stage")
	flag.StringVar(&o.merge, "merge", "none", "merge mode: none, sequential, hadoop, interleaved")
	flag.Float64Var(&o.mergeKB, "merge-target-kb", 2, "merged file target size in KiB")
	flag.StringVar(&o.dbdir, "db", "", "Lobster DB directory (enables crash recovery)")
	flag.Uint64Var(&o.seed, "seed", 1, "synthetic content seed")
	flag.StringVar(&o.confPath, "config", "", "JSON workflow configuration file (overrides the workflow flags)")
	flag.StringVar(&o.httpAddr, "http", "", "serve live telemetry (GET /metrics, Prometheus text) on this address")
	flag.BoolVar(&o.pprofOn, "pprof", false, "with -http: also serve /debug/pprof (goroutine, heap, CPU) for go tool pprof")
	flag.StringVar(&o.evlogPath, "event-log", "", "append structured JSONL task events to this file")
	flag.Int64Var(&o.evlogMax, "event-log-max", 0, "rotate the event log after this many bytes (0 = never)")
	flag.StringVar(&o.trlogPath, "trace-log", "", "enable distributed tracing; append trace spans to this JSONL file (analyze with lobster-trace)")
	flag.Float64Var(&o.trRate, "trace-rate", 0, "head-sampling bound: max new traces sampled per second (0 = all)")
	flag.StringVar(&o.faultPlanPath, "fault-plan", "", "JSON fault plan: inject a deterministic fault storm into the stack")
	flag.Uint64Var(&o.faultSeed, "fault-seed", 0, "override the fault plan's seed (0 = use the plan's)")
	flag.StringVar(&o.topURL, "top", "", "print the /metrics of the lobster or chirpd at this base URL and exit")
	flag.BoolVar(&o.watch, "watch", false, "with -top: refresh continuously instead of one-shot")
	flag.DurationVar(&o.interval, "interval", 2*time.Second, "with -top -watch: refresh interval")
	flag.Parse()
	var err error
	switch {
	case o.topURL != "":
		err = top(os.Stdout, o.topURL, o.watch, o.interval)
	default:
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lobster:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var cfg core.Config
	if o.confPath != "" {
		var err error
		cfg, err = core.LoadConfig(o.confPath)
		if err != nil {
			return err
		}
		if cfg.Kind == core.KindAnalysis {
			o.kind = string(core.KindAnalysis)
		} else {
			o.kind = string(core.KindSimulation)
		}
		o.merge = string(cfg.MergeMode)
	}

	reg := telemetry.NewRegistry()
	var evl *telemetry.EventLog
	if o.evlogPath != "" {
		var err error
		evl, err = telemetry.OpenEventLogLimit(o.evlogPath, o.evlogMax, reg.Now)
		if err != nil {
			return err
		}
		defer evl.Close()
	}
	var tracer *trace.Tracer
	if o.trlogPath != "" {
		trl := evl
		if o.trlogPath != o.evlogPath {
			var err error
			trl, err = telemetry.OpenEventLogLimit(o.trlogPath, o.evlogMax, reg.Now)
			if err != nil {
				return err
			}
			defer trl.Close()
		}
		tracer = trace.New(trace.Config{Registry: reg, Log: trl, MaxTracesPerSec: o.trRate})
	}
	profDir := ""
	if o.evlogPath != "" {
		profDir = o.evlogPath + ".profiles"
	}
	hub := health.NewHub(health.Config{Registry: reg, Log: evl, ProfileDir: profDir})
	if o.httpAddr != "" {
		lis, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer lis.Close()
		mux := reg.Mux()
		if o.pprofOn {
			profiling.AttachPprof(mux)
		}
		go func() {
			if err := http.Serve(lis, mux); !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "lobster: telemetry server:", err)
			}
		}()
		fmt.Printf("telemetry on http://%s/metrics\n", lis.Addr())
	}

	var inj *faultinject.Injector
	var faultRetry retry.Policy
	if o.faultPlanPath != "" {
		plan, err := faultinject.LoadPlan(o.faultPlanPath)
		if err != nil {
			return err
		}
		if o.faultSeed != 0 {
			plan.Seed = o.faultSeed
		}
		inj = faultinject.New(plan)
		// A storm without retries just fails; arm the same bounded
		// backoff the chaos suite runs under.
		faultRetry = retry.Policy{MaxAttempts: 4}
		fmt.Printf("fault plan armed: %d rules, seed %d\n", len(plan.Rules), plan.Seed)
	}

	fmt.Println("starting services (cvmfs, squid, frontier, xrootd, chirp, wq)...")
	st, err := deploy.Start(deploy.Options{
		Files: o.files, LumisPerFile: o.lumis, EventsPerFile: o.events,
		Workers: o.workers, CoresPerWorker: o.cores,
		UseHDFS:   o.merge == "hadoop",
		Seed:      o.seed,
		Telemetry: reg,
		EventLog:  evl,
		Tracer:    tracer,
		Fault:     inj,
		Retry:     faultRetry,
	})
	if err != nil {
		return err
	}
	defer st.Close()

	if o.dbdir != "" {
		db, err := store.Open(o.dbdir)
		if err != nil {
			return err
		}
		defer db.Close()
		st.Services.DB = db
	}

	if o.confPath == "" {
		cfg = core.Config{
			Name:            "cli",
			Kind:            core.Kind(o.kind),
			TaskletsPerTask: o.taskSize,
			AccessMode:      core.AccessMode(o.access),
			MergeMode:       core.MergeMode(o.merge),
			EventSize:       st.EventSize(),
		}
		if cfg.MergeMode != core.MergeNone && cfg.MergeMode != "" {
			cfg.MergeTargetBytes = int64(o.mergeKB * 1024)
		}
		switch cfg.Kind {
		case core.KindAnalysis:
			cfg.Dataset = st.Dataset.Name
		case core.KindSimulation:
			cfg.TotalEvents = o.events
			cfg.EventsPerTasklet = 10
		}
	} else {
		// The stack hosts a synthetic dataset; point the file's workflow at
		// it (the file names a production dataset that does not exist here).
		if cfg.Kind == core.KindAnalysis {
			cfg.Dataset = st.Dataset.Name
		}
		cfg.EventSize = st.EventSize()
	}

	l, err := core.New(cfg, st.Services)
	if err != nil {
		return err
	}
	l.SetResultTimeout(2 * time.Minute)
	fmt.Printf("running %s workflow %q over %s...\n", o.kind, cfg.Name, st.Dataset.Name)
	start := time.Now()
	finish := evaluate(hub)
	rep, err := l.Run()
	finish()
	if err != nil {
		return err
	}

	fmt.Printf("\nrun finished in %v (recovered=%v)\n", time.Since(start).Round(time.Millisecond), rep.Recovered)
	tb := tabulate.NewTable("Run report", "metric", "value")
	tb.Row("tasklets", fmt.Sprintf("%d/%d done, %d failed", rep.TaskletsDone, rep.TaskletsTotal, rep.TaskletsFailed))
	tb.Row("task attempts", fmt.Sprintf("%d run, %d failed", rep.TasksRun, rep.TasksFailed))
	tb.Row("merge tasks", fmt.Sprintf("%d run, %d merged files", rep.MergesRun, rep.MergedFiles))
	fmt.Println(tb.Render())

	bd := tabulate.NewTable("Runtime breakdown (cf. paper Figure 8)", "Task Phase", "Time (s)", "Fraction (%)")
	for _, row := range st.Services.Monitor.Breakdown() {
		bd.Row(row.Phase, fmt.Sprintf("%.2f", row.Hours*3600), fmt.Sprintf("%.1f", row.Fraction*100))
	}
	fmt.Println(bd.Render())

	if advice := st.Services.Monitor.Diagnose(monitor.Thresholds{}); len(advice) > 0 {
		fmt.Println("Diagnoses:")
		for _, a := range advice {
			fmt.Printf("  [%s] %s\n", a.Code, a.Message)
		}
	} else {
		fmt.Println("Diagnoses: none — the run looks healthy.")
	}
	if alerts := hub.Alerts(); len(alerts) > 0 {
		fmt.Println("Alerts:")
		for _, a := range alerts {
			fmt.Printf("  %8.1fs %-8s %-22s value=%.3g threshold=%.3g %s\n",
				a.Time, a.State, a.Rule, a.Value, a.Threshold, a.Profile)
		}
	} else {
		fmt.Println("Alerts: none.")
	}

	outDir := "/store/user/" + cfg.Name
	outs, err := st.ChirpFS.List(outDir)
	if err == nil {
		fmt.Printf("\nOutputs on the storage element (%s): %d files\n", outDir, len(outs))
		for _, o := range outs {
			fmt.Printf("  %-40s %s\n", o.Name, tabulate.Bytes(float64(o.Size)))
		}
	}
	if inj != nil {
		fmt.Printf("\nfault plane: %d faults injected\n", inj.TotalFired())
	}
	if !rep.Succeeded() {
		return fmt.Errorf("%d tasklets failed", rep.TaskletsFailed)
	}
	return nil
}

// alertInterval is how often the health rules evaluate the run's
// registry while the workflow runs.
const alertInterval = 5 * time.Second

// evaluate ticks hub every alertInterval until the returned function is
// called. That function joins the ticker and runs one last tick, so the
// run's final counters are evaluated before the event log closes. Each
// transition is printed on stderr as it happens.
func evaluate(hub *health.Hub) (finish func()) {
	stop, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		t := time.NewTicker(alertInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				printAlerts(hub.Tick())
			}
		}
	}()
	return func() {
		close(stop)
		<-ticked
		printAlerts(hub.Tick())
	}
}

func printAlerts(alerts []monitor.AlertRecord) {
	for _, a := range alerts {
		fmt.Fprintf(os.Stderr, "alert %-8s %-22s value=%.3g threshold=%.3g %s\n",
			a.State, a.Rule, a.Value, a.Threshold, a.Help)
	}
}
