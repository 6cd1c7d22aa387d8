package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"lobster/internal/chirp"
	"lobster/internal/cluster"
	"lobster/internal/core"
	"lobster/internal/deploy"
	"lobster/internal/hepsim"
	"lobster/internal/monitor"
	"lobster/internal/squid"
	"lobster/internal/stats"
	"lobster/internal/store"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wq"
)

// slots is the load shape every workload shares: a closed loop over exactly
// two task slots, so the two cores of the host are shared by the slots and
// every server of the stack, as on a real worker node.
const slots = 2

// pileupPath is where sim-evict's pile-up sample lives on the storage element.
const pileupPath = "/pileup/minbias.root"

// workload is one seeded full-stack workflow shape.
type workload struct {
	Name string
	Why  string
	// Opts shapes the dataset and the stable worker fleet; Seed, ScratchDir
	// and the tracing handles are filled per run.
	Opts deploy.Options
	// Cfg is the workflow template; every pass gets a unique Name.
	Cfg core.Config
	// Passes is the number of back-to-back workflow passes in one round.
	Passes int
	// PileupBytes, when set, is the size of the pile-up sample uploaded
	// over chirp in set-up (simulation only).
	PileupBytes int
	// PoolLifetime, when set, adds an opportunistic 1 x 1 core pool whose
	// workers live this long before the batch system evicts them.
	PoolLifetime stats.Dist
	// Check asserts on the traced rounds that the workload still stresses
	// what Why claims, so it cannot drift onto another layer unnoticed.
	Check func(l *layerTotals) error
}

// workloads are the four corners. Shapes are frozen: a round lasts about
// two seconds on the 2-core reference host, and a run measures rounds until
// --seconds have been measured.
var workloads = []*workload{
	{
		Name: "stream-bulk",
		Why:  "default data path (Fig 4 winner): slot time is the hepsim kernel plus xrootd chunked ReadAt, per-task cost is negligible, so data-path and kernel gains show here and per-task work must not",
		Opts: deploy.Options{
			Files: 8, LumisPerFile: 1, EventsPerFile: 4096, EventBytes: 4096,
			Workers: 1, CoresPerWorker: slots,
		},
		Cfg: core.Config{
			Kind: core.KindAnalysis, AccessMode: core.AccessStream,
			EventSize: 4096, Work: 1,
		},
		Passes: 12,
		Check: func(l *layerTotals) error {
			return wantShare("execute", l.execute/l.slotS, 0.6, 1)
		},
	},
	{
		Name: "small-tasks",
		Why:  "opposite corner: one-event tasks, execute is ~2% of slot time, the rest is per-task fixed cost in wq, parrot/cvmfs, frontier/squid, xrootd open, chirp put and core/store/monitor bookkeeping",
		Opts: deploy.Options{
			Files: 16, LumisPerFile: 32, EventsPerFile: 32, EventBytes: 1024,
			Workers: 1, CoresPerWorker: slots,
		},
		Cfg: core.Config{
			Kind: core.KindAnalysis, AccessMode: core.AccessStream,
			EventSize: 1024, Work: 1,
		},
		Passes: 1,
		Check: func(l *layerTotals) error {
			return wantShare("execute", l.execute/l.slotS, 0, 0.1)
		},
	},
	{
		Name: "stage-merge",
		Why:  "same layers used differently: xrootd as one bulk ranged read before compute (Fig 4 loser), chirp for large writes and reads (interleaved merge, Fig 7); catches gains bought at staging's cost",
		Opts: deploy.Options{
			Files: 8, LumisPerFile: 2, EventsPerFile: 262144, EventBytes: 32,
			Workers: 1, CoresPerWorker: slots,
		},
		Cfg: core.Config{
			Kind: core.KindAnalysis, AccessMode: core.AccessStage,
			MergeMode: core.MergeInterleaved, MergeTargetBytes: 8 << 20,
			EventSize: 32, Work: 1,
		},
		Passes: 12,
		Check: func(l *layerTotals) error {
			return wantShare("stage_in+stage_out+merge", (l.stageIn+l.stageOut+l.merge)/l.slotS, 0.25, 1)
		},
	},
	{
		Name: "sim-evict",
		Why:  "the title hazard, non-dedicated cores: simulation with pile-up gets over chirp, wq requeue and the cluster pool under seeded Weibull evictions; the only place lost work can move a number",
		Opts: deploy.Options{
			Files: 1, LumisPerFile: 1, EventsPerFile: 1, EventBytes: 1024,
			Workers: 1, CoresPerWorker: 1,
		},
		Cfg: core.Config{
			Kind: core.KindSimulation, TotalEvents: 32 * 5000,
			EventsPerTasklet: 500, TaskletsPerTask: 10,
			EventSize: 1024, Work: 4, PileupPath: pileupPath,
		},
		Passes:       2,
		PileupBytes:  256 << 10,
		PoolLifetime: stats.Weibull{K: 0.8, Lambda: 0.3},
		Check: func(l *layerTotals) error {
			if err := wantShare("execute", l.execute/l.slotS, 0.6, 1); err != nil {
				return err
			}
			if perS := float64(l.evictions) / (l.slotS / slots); perS < 1 {
				return fmt.Errorf("%.2f evictions per second of wall, want >= 1", perS)
			}
			if l.requeues*2 < l.evictions {
				return fmt.Errorf("%d requeues for %d evictions, want at least half", l.requeues, l.evictions)
			}
			return nil
		},
	},
}

func wantShare(what string, got, lo, hi float64) error {
	if got < lo || got > hi {
		return fmt.Errorf("%s share of slot time is %.3f, want within [%.2f, %.2f]", what, got, lo, hi)
	}
	return nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// scaled returns a copy shrunk by div for the smoke test: fewer files (or
// simulated events) and one pass per round, the same code paths.
func (w *workload) scaled(div int) *workload {
	c := *w
	c.Passes = 1
	c.Opts.Files = max(2, w.Opts.Files/div)
	c.Opts.LumisPerFile = max(1, w.Opts.LumisPerFile/div)
	c.Opts.EventsPerFile = max(c.Opts.LumisPerFile, w.Opts.EventsPerFile/div)
	if w.Cfg.Kind == core.KindSimulation {
		c.Cfg.EventsPerTasklet = max(1, w.Cfg.EventsPerTasklet/div)
		c.Cfg.TotalEvents = 8 * c.Cfg.EventsPerTasklet * w.Cfg.TaskletsPerTask
	}
	c.Check = nil // shares of a 20 ms run say nothing about the full shape
	return &c
}

// bench is one running stack plus what the benchmark holds beside it.
type bench struct {
	w    *workload
	st   *deploy.Stack
	db   *store.DB
	pool *cluster.Pool
	ref  checksum      // what every pass must produce
	se   *chirp.Client // oracle read-back connection
	seq  int           // passes run, for unique workflow names

	// Tracing handles; all nil on the untraced stack.
	reg    *telemetry.Registry
	tracer *trace.Tracer
	evlog  *telemetry.EventLog
	spans  *bytes.Buffer
	mark   float64 // registry clock when the traced rounds began; earlier spans are warm-up
}

// setup brings up the production assembly for w under dir and computes the
// oracle reference. traced switches on the tracer, telemetry and event log
// the stack already has; the timed rounds run with all three nil.
func setup(w *workload, seed uint64, dir string, traced bool) (b *bench, err error) {
	b = &bench{w: w}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	opts := w.Opts
	opts.Seed = seed
	opts.ScratchDir = filepath.Join(dir, "stack")
	if traced {
		b.reg = telemetry.NewRegistry()
		b.spans = &bytes.Buffer{}
		b.evlog = telemetry.NewEventLog(b.spans, b.reg.Now)
		b.tracer = trace.New(trace.Config{Registry: b.reg, Log: b.evlog, Seed: seed})
		opts.Telemetry, opts.Tracer, opts.EventLog = b.reg, b.tracer, b.evlog
	}
	if b.st, err = deploy.Start(opts); err != nil {
		return b, err
	}
	if b.db, err = store.Open(filepath.Join(dir, "db")); err != nil {
		return b, err
	}
	if b.se, err = chirp.Dial(b.st.ChirpSrv.Addr(), 30*time.Second); err != nil {
		return b, err
	}
	var pileup []byte
	if w.PileupBytes > 0 {
		k, err := hepsim.NewKernel(w.Cfg.EventSize, 1)
		if err != nil {
			return b, err
		}
		pileup = k.GenerateEvents(w.PileupBytes/w.Cfg.EventSize, stats.NewRandStream(seed, 2))
		if err := b.se.PutFile(pileupPath, pileup); err != nil {
			return b, err
		}
	}
	if w.PoolLifetime != nil {
		b.pool, err = cluster.NewPool(cluster.PoolConfig{
			MasterAddr: b.st.Services.Master.Addr(), Workers: 1, CoresPerWorker: 1,
			Registry: tracedRegistry(b.st.Registry, b.tracer), Lifetime: w.PoolLifetime, Replace: true,
			ScratchDir: filepath.Join(dir, "pool"),
		}, stats.NewRandStream(seed, 3))
		if err != nil {
			return b, err
		}
	}
	b.ref, err = reference(b, pileup)
	return b, err
}

// tracedRegistry makes the pool's workers traceable. cluster.NewPool gives
// its workers no tracer, so their tasks would leave a hole under the
// master's dispatch span; this wraps each executor in the benchmark-owned
// twin of the span a traced worker records, chained under the context the
// task carried over the wire. A nil tracer returns reg itself.
func tracedRegistry(reg wq.Registry, tr *trace.Tracer) wq.Registry {
	if tr == nil {
		return reg
	}
	out := make(wq.Registry, len(reg))
	for name, exec := range reg {
		out[name] = func(ctx *wq.ExecContext) error {
			span := tr.Start(ctx.Trace, "worker", "execute")
			defer span.End()
			traced := *ctx
			traced.Tracer, traced.Trace = tr, span.Context()
			return exec(&traced)
		}
	}
	return out
}

// close tears the stack down; a second call does nothing.
func (b *bench) close() {
	if b.pool != nil {
		b.pool.Stop()
	}
	if b.se != nil {
		b.se.Close()
	}
	if b.db != nil {
		b.db.Close()
	}
	if b.st != nil {
		b.st.Close()
	}
	b.pool, b.se, b.db, b.st = nil, nil, nil, nil
}

// counters are the cumulative public counters of the stack's layers; a
// pass is billed the difference between two snapshots.
type counters struct {
	master   wq.MasterStats
	proxy    squid.Stats
	chirp    chirp.ServerStats
	lookups  int64
	xrdBytes int64
	wal      int64
	evicted  int
	started  int
}

func (b *bench) counters() counters {
	c := counters{
		master:   b.st.Services.Master.Stats(),
		proxy:    b.st.Proxy.Stats(),
		chirp:    b.st.ChirpSrv.Stats(),
		lookups:  b.st.Redirector.Lookups(),
		xrdBytes: b.st.Dashboard.Volume("lobster"),
		wal:      b.db.WALSize(),
	}
	if b.pool != nil {
		c.evicted, c.started = b.pool.Evictions(), b.pool.Started()
	}
	return c
}

// pass is what one workflow pass (core.New + Run on the shared stack)
// produced and cost. Oracle time is outside every number here.
type pass struct {
	wall    float64 // s, around New+Run
	cpu     float64 // s, process user+sys: servers, workers and driver share the process
	alloc   float64 // bytes, MemStats.TotalAlloc delta
	report  *core.RunReport
	records []monitor.TaskRecord
	before  counters
	after   counters
	outputs string // the workflow's OutputDir on the storage element
	bad     int    // oracle mismatches (0 or 1)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkflow drives one workflow through the production driver on the
// shared stack and returns what it cost.
func (b *bench) runWorkflow() (*pass, error) {
	cfg := b.w.Cfg
	cfg.Name = fmt.Sprintf("%s-p%d", b.w.Name, b.seq)
	cfg.OutputDir = "/store/user/" + cfg.Name
	if cfg.Kind == core.KindAnalysis {
		cfg.Dataset = b.st.Dataset.Name
	}
	b.seq++
	svc := b.st.Services
	svc.DB = b.db
	svc.Monitor = monitor.New()

	p := &pass{before: b.counters(), outputs: cfg.OutputDir}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuSeconds()
	span := b.tracer.Root("benchmark", "core.run", cfg.Name)
	t0 := time.Now()
	l, err := core.New(cfg, svc)
	if err != nil {
		return nil, err
	}
	rep, err := l.Run()
	p.wall = time.Since(t0).Seconds()
	span.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	p.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	p.alloc = float64(ms.TotalAlloc - alloc0)
	p.after = b.counters()
	p.report = rep
	p.records = svc.Monitor.Records()
	return p, nil
}

// verify is the output oracle: the workflow's OutputDir, read back over
// chirp, must fingerprint like the reference, and every tasklet must be
// done. A mismatch is counted in p, not returned: it is a failed operation
// of the system under test, not of the benchmark.
func (b *bench) verify(p *pass) error {
	got, err := readBack(b.se, p.outputs, true)
	if err != nil {
		return fmt.Errorf("reading %s back: %w", p.outputs, err)
	}
	if got != b.ref || !p.report.Succeeded() {
		p.bad = 1
		fmt.Fprintf(os.Stderr, "benchmark: %s: oracle mismatch: got %+v want %+v, report %+v\n", p.outputs, got, b.ref, *p.report)
	}
	return nil
}

// round is Passes back-to-back passes; its numbers are sums over them.
type round []*pass

func (b *bench) runRound() (round, error) {
	var r round
	for i := 0; i < b.w.Passes; i++ {
		p, err := b.runWorkflow()
		if err != nil {
			return nil, err
		}
		if err := b.verify(p); err != nil {
			return nil, err
		}
		r = append(r, p)
	}
	return r, nil
}

func (r round) wall() float64 {
	var t float64
	for _, p := range r {
		t += p.wall
	}
	return t
}

// accepted calls fn for every task record of the round whose result the
// workflow accepted.
func (r round) accepted(fn func(*monitor.TaskRecord)) {
	for _, p := range r {
		for i := range p.records {
			if !p.records[i].Failed() {
				fn(&p.records[i])
			}
		}
	}
}

// tally counts attempts and failures for the contract's result line:
// failed task attempts, failed tasklets and output-check mismatches over
// task attempts plus output checks.
func tally(rounds []round) (attempted, failed int) {
	for _, r := range rounds {
		for _, p := range r {
			attempted += p.report.TasksRun + p.report.MergesRun + 1
			failed += p.report.TasksFailed + p.report.TaskletsFailed + p.bad
		}
	}
	return attempted, failed
}

// untracedMetrics folds timed rounds into the end-to-end table and the
// run.* metrics: every per-round metric is the median over rounds; latency
// percentiles pool all rounds. setups may be empty (a baseline needs none).
func untracedMetrics(rounds []round, setups []float64) *metrics {
	m := newMetrics(untracedDefs)
	per := map[string][]float64{}
	var lat []float64
	for _, r := range rounds {
		wall := r.wall()
		var tasks, bytes, exec, cpu, alloc float64
		r.accepted(func(t *monitor.TaskRecord) {
			tasks++
			bytes += t.Metrics["bytes_in"] + t.Metrics["bytes_out"]
			exec += t.CPUTime
			lat = append(lat, (t.Return-t.Dispatch)*1e3)
		})
		for _, p := range r {
			cpu += p.cpu
			alloc += p.alloc
		}
		per["alloc_mb"] = append(per["alloc_mb"], alloc/1e6)
		per["run.wall_s"] = append(per["run.wall_s"], wall)
		per["run.tasks_per_s"] = append(per["run.tasks_per_s"], tasks/wall)
		per["run.data_mbps"] = append(per["run.data_mbps"], bytes/wall/1e6)
		per["run.goodput_frac"] = append(per["run.goodput_frac"], exec/(slots*wall))
		per["run.cpu_s"] = append(per["run.cpu_s"], cpu)
	}
	for name, vals := range per {
		m.put(name, value{Value: median(vals), Rounds: vals})
	}
	samples := fmt.Sprintf("%d tasks", len(lat))
	m.put("run.task_p50_ms", value{Value: quantile(lat, 0.50), Base: samples})
	m.put("run.task_p95_ms", value{Value: quantile(lat, 0.95), Base: samples})
	m.put("setup_s", value{Value: median(setups), Rounds: setups})
	m.set("peak_rss_mb", peakRSSMB())
	return m
}
