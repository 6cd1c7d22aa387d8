// Package deploy assembles the full real-execution-plane service stack —
// CVMFS origin behind a squid proxy, Frontier conditions, an XrootD
// federation populated with a synthetic dataset, a Chirp storage element
// (local disk or HDFS-backed), a Work Queue master, and worker processes —
// so commands and examples can bring up a working Lobster deployment in a
// few lines. Everything runs in-process over real TCP/HTTP.
package deploy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"lobster/internal/bufpool"
	"lobster/internal/chirp"
	"lobster/internal/core"
	"lobster/internal/cvmfs"
	"lobster/internal/dbs"
	"lobster/internal/faultinject"
	"lobster/internal/frontier"
	"lobster/internal/hdfs"
	"lobster/internal/hepsim"
	"lobster/internal/monitor"
	"lobster/internal/parrot"
	"lobster/internal/retry"
	"lobster/internal/squid"
	"lobster/internal/stats"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wq"
	"lobster/internal/xrootd"
)

// Options configures the stack.
type Options struct {
	// Dataset shape.
	DatasetName   string
	Files         int
	LumisPerFile  int
	EventsPerFile int
	EventBytes    int64

	// UseHDFS backs the storage element with an HDFS cluster (3 datanodes,
	// 2x replication) instead of a local directory; required for Hadoop
	// merging.
	UseHDFS bool

	// Workers and CoresPerWorker size the initial worker fleet.
	Workers        int
	CoresPerWorker int

	// ScratchDir holds worker sandboxes, caches, and the chirp export.
	// Empty means a fresh temporary directory, which Close removes.
	ScratchDir string

	// Seed drives all synthetic content.
	Seed uint64

	// Telemetry, when set, instruments every component of the stack (proxy,
	// chirp, master, workers) and is handed to core.Services.
	Telemetry *telemetry.Registry
	// EventLog, when set, is handed to core.Services for structured task
	// event logging.
	EventLog *telemetry.EventLog
	// Tracer, when set, threads distributed tracing through the stack:
	// master dispatch, worker runs, wrapper segments, and the chirp,
	// squid, and xrootd operations beneath them all join one trace per
	// task.
	Tracer *trace.Tracer
	// Fault, when set, wires every component into the deterministic
	// fault plane: the wq master's accepted connections, each worker's
	// master connection and staging hooks, chirp server and client
	// connections, xrootd replica connections, squid origin fetches, and
	// the wrapper's per-segment hooks. Chaos tests script storms against
	// these seams; a nil injector leaves the stack fault-free at zero
	// cost.
	Fault *faultinject.Injector
	// Retry configures the client-path backoff policies armed when the
	// stack should survive faults (chirp operations, xrootd fetches,
	// squid origin fetches, worker staging). The zero value keeps every
	// path single-attempt.
	Retry retry.Policy
}

// Defaults fills unset fields.
func (o *Options) defaults() error {
	if o.DatasetName == "" {
		o.DatasetName = "/Demo/Run2015A/AOD"
	}
	if o.Files <= 0 {
		o.Files = 4
	}
	if o.LumisPerFile <= 0 {
		o.LumisPerFile = 4
	}
	if o.EventsPerFile <= 0 {
		o.EventsPerFile = 40
	}
	if o.EventBytes <= 0 {
		o.EventBytes = 4096
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.CoresPerWorker <= 0 {
		o.CoresPerWorker = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ScratchDir == "" {
		dir, err := os.MkdirTemp("", "lobster-deploy-*")
		if err != nil {
			return fmt.Errorf("deploy: scratch dir: %w", err)
		}
		o.ScratchDir = dir
	}
	return nil
}

// Stack is a running deployment.
type Stack struct {
	Options  Options
	Services core.Services
	Env      *hepsim.Env
	Registry wq.Registry

	Dataset    *dbs.Dataset
	Proxy      *squid.Proxy
	Redirector *xrootd.Redirector
	Dashboard  *xrootd.Dashboard
	ChirpFS    chirp.FileSystem
	ChirpSrv   *chirp.Server
	HDFS       *hdfs.Cluster

	workers  []*wq.Worker
	closers  []func()
	scratch  string
	nWorkers int
}

// Start brings up the whole stack.
func Start(opts Options) (*Stack, error) {
	ownScratch := opts.ScratchDir == ""
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	st := &Stack{Options: opts, scratch: opts.ScratchDir}
	if ownScratch { // the first closer runs last
		st.closers = append(st.closers, func() { os.RemoveAll(st.scratch) })
	}
	ok := false
	defer func() {
		if !ok {
			st.Close()
		}
	}()

	// Dataset metadata and federation content.
	rng := stats.NewRand(opts.Seed)
	ds, err := dbs.Generate(dbs.GenConfig{
		Name: opts.DatasetName, Files: opts.Files, EventsPerFile: opts.EventsPerFile,
		LumisPerFile: opts.LumisPerFile, EventBytes: opts.EventBytes,
	}, rng)
	if err != nil {
		return nil, err
	}
	st.Dataset = ds
	st.Services.DBS = dbs.NewService()
	if err := st.Services.DBS.Register(ds); err != nil {
		return nil, err
	}

	dataSrv, err := xrootd.NewDataServer("T3_US_Local", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { dataSrv.Close() })
	st.Redirector = xrootd.NewRedirector()
	kernel, err := hepsim.NewKernel(int(opts.EventBytes), 1)
	if err != nil {
		return nil, err
	}
	dataSrv.Instrument(opts.Telemetry)
	if err := storeDataset(dataSrv, st.Redirector, ds, kernel, rng); err != nil {
		return nil, err
	}
	st.Dashboard = xrootd.NewDashboard()

	// CVMFS + Frontier origin behind squid.
	repo := cvmfs.NewRepository("cms.cern.ch")
	if _, err := cvmfs.PublishRelease(repo, cvmfs.TestRelease("CMSSW_7_4_0"), rng); err != nil {
		return nil, err
	}
	cond := frontier.NewService()
	if err := cond.Publish(frontier.Payload{
		Tag: "align", FirstRun: 1, LastRun: 100000000, Data: []byte("conditions"),
	}); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/frontier/", cond)
	mux.Handle("/", cvmfs.NewServer(repo))
	origin := httptest.NewServer(mux)
	st.closers = append(st.closers, origin.Close)
	st.Proxy, err = squid.New(origin.URL, squid.Config{
		Fault: opts.Fault,
		Retry: opts.Retry,
	})
	if err != nil {
		return nil, err
	}
	st.Proxy.Instrument(opts.Telemetry)
	st.Proxy.Trace(opts.Tracer)
	proxySrv := httptest.NewServer(st.Proxy)
	st.closers = append(st.closers, proxySrv.Close)

	// Storage element.
	if opts.UseHDFS {
		cluster, err := hdfs.NewCluster(3, 2, 1<<20)
		if err != nil {
			return nil, err
		}
		st.HDFS = cluster
		st.ChirpFS = cluster
		st.Services.HDFS = cluster
	} else {
		fs, err := chirp.NewLocalFS(filepath.Join(opts.ScratchDir, "storage"))
		if err != nil {
			return nil, err
		}
		st.ChirpFS = fs
	}
	st.ChirpSrv, err = chirp.NewServer(st.ChirpFS, "127.0.0.1:0", 16)
	if err != nil {
		return nil, err
	}
	st.ChirpSrv.Instrument(opts.Telemetry)
	st.ChirpSrv.Trace(opts.Tracer)
	st.ChirpSrv.Fault(opts.Fault)
	st.closers = append(st.closers, func() { st.ChirpSrv.Close() })

	// Worker environment and registry.
	cache, err := parrot.NewCache(filepath.Join(opts.ScratchDir, "parrot-cache"), parrot.ModeAlien)
	if err != nil {
		return nil, err
	}
	cache.Instrument(opts.Telemetry)
	// One client for the whole worker process: every task's open takes a
	// connection an earlier task parked instead of dialling its own.
	xcl := &xrootd.Client{Redirector: st.Redirector, Dashboard: st.Dashboard,
		Consumer: "lobster", Fault: opts.Fault, Retry: opts.Retry, Telemetry: opts.Telemetry}
	st.closers = append(st.closers, func() { xcl.Close() })
	st.Env = &hepsim.Env{
		ProxyURL:      proxySrv.URL,
		Repo:          "cms.cern.ch",
		ReleasePath:   "/CMSSW_7_4_0",
		Cache:         cache,
		ChirpAddr:     st.ChirpSrv.Addr(),
		ConditionsTag: "align",
		Fault:         opts.Fault,
		ChirpRetry:    opts.Retry,
		Telemetry:     opts.Telemetry,
		Open: func(lfn string, tr *trace.Tracer, ctx trace.Context) (hepsim.RemoteFile, error) {
			return xcl.OpenTraced(lfn, tr, ctx)
		},
	}
	mergePool := core.MergePool(st.ChirpSrv.Addr(), opts.Retry, opts.Fault)
	st.closers = append(st.closers, func() { st.Env.Close() }, func() { mergePool.Close() })
	st.Registry = wq.Registry{
		"analysis":   hepsim.Analysis(st.Env),
		"simulation": hepsim.Simulation(st.Env),
		"merge":      core.MergeExecutor(mergePool),
	}

	// Master and workers.
	master, err := wq.NewMaster("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	master.Instrument(opts.Telemetry)
	master.Trace(opts.Tracer)
	master.Fault(opts.Fault)
	st.Services.Master = master
	st.closers = append(st.closers, func() { master.Close() })
	for i := 0; i < opts.Workers; i++ {
		if _, err := st.AddWorker(); err != nil {
			return nil, err
		}
	}
	st.Services.Monitor = monitor.New()
	st.Services.Telemetry = opts.Telemetry
	st.Services.EventLog = opts.EventLog
	ok = true
	return st, nil
}

// storeDataset generates every file of ds a pooled chunk at a time
// straight into srv's spool and registers it with red: no file exists
// whole in memory. A chunk is a multiple of 8 bytes, one RNG draw, so the
// bytes are those of kernel.GenerateEvents on each whole file in turn.
func storeDataset(srv *xrootd.DataServer, red *xrootd.Redirector, ds *dbs.Dataset, kernel *hepsim.Kernel, rng *stats.Rand) error {
	chunk := bufpool.Get()
	defer bufpool.Put(chunk)
	for _, f := range ds.Files {
		left := f.Events * kernel.EventSize
		rep, err := srv.StoreFrom(f.LFN, func(w io.Writer) error {
			for left > 0 {
				b := (*chunk)[:min(left, len(*chunk))]
				kernel.GenerateInto(b, rng)
				if _, err := w.Write(b); err != nil {
					return err
				}
				left -= len(b)
			}
			return nil
		})
		if err != nil {
			return err
		}
		red.Register(f.LFN, rep)
	}
	return nil
}

// AddWorker attaches one more worker to the master.
func (st *Stack) AddWorker() (*wq.Worker, error) {
	name := fmt.Sprintf("worker-%d", st.nWorkers)
	st.nWorkers++
	w, err := wq.NewWorkerOpts(st.Services.Master.Addr(), name, st.Options.CoresPerWorker,
		filepath.Join(st.scratch, name), st.Registry, wq.WorkerOptions{
			Fault:      st.Options.Fault,
			StageRetry: st.Options.Retry,
		})
	if err != nil {
		return nil, fmt.Errorf("deploy: starting %s: %w", name, err)
	}
	w.Instrument(st.Options.Telemetry)
	w.Trace(st.Options.Tracer)
	st.workers = append(st.workers, w)
	return w, nil
}

// EventSize returns the kernel event size matching the generated dataset.
func (st *Stack) EventSize() int { return int(st.Options.EventBytes) }

// Close tears the stack down.
func (st *Stack) Close() {
	for _, w := range st.workers {
		w.Close()
	}
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}
