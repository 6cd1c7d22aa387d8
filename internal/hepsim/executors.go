package hepsim

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"lobster/internal/bufpool"
	"lobster/internal/chirp"
	"lobster/internal/faultinject"
	"lobster/internal/frontier"
	"lobster/internal/parrot"
	"lobster/internal/retry"
	"lobster/internal/stats"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wire"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
)

// Env describes the services a worker-side executor uses. One Env is shared
// by all tasks on a worker process; the parrot cache in particular is the
// node-local cache all slots share.
type Env struct {
	// ProxyURL is the squid (or stratum) base URL for CVMFS and Frontier.
	ProxyURL string
	// Repo is the CVMFS repository name, e.g. "cms.cern.ch".
	Repo string
	// ReleasePath is the software release to warm, e.g. "/CMSSW_7_4_0".
	ReleasePath string
	// Cache is the node-local parrot cache shared by all task slots.
	Cache *parrot.Cache
	// Open opens an input LFN for reading (nil disables xrootd access). It
	// receives the task's tracer and the current segment's span context,
	// both zero when the task runs untraced, so the data-access client can
	// chain its spans (replica choice, bytes) under the task trace.
	Open func(lfn string, tr *trace.Tracer, ctx trace.Context) (RemoteFile, error)
	// ChirpAddr is the storage-element chirp server for outputs (and
	// pile-up inputs for simulation).
	ChirpAddr string
	// ConditionsTag is the Frontier tag tasks fetch (empty disables).
	ConditionsTag string
	// Fault, when non-nil, arms per-segment fault hooks in the wrapper
	// (component "wrapper", op = segment name) and wires chirp stage-out
	// and pile-up connections into the fault plane.
	Fault *faultinject.Injector
	// ChirpRetry bounds redial-and-retry for the executors' chirp
	// operations (stage-out put, pile-up get). The zero Policy keeps the
	// old single-attempt behaviour.
	ChirpRetry retry.Policy
	// Telemetry, when non-nil, counts the executors' chirp payload bytes
	// under lobster_bytes_total{component="chirp_client"} and
	// instruments the shared connection pool.
	Telemetry *telemetry.Registry

	// poolOnce/pool lazily build the chirp connection pool all task
	// slots of this worker process share: stage-out waves reuse warm
	// connections instead of dialing per segment.
	poolOnce sync.Once
	pool     *chirp.Pool

	// condOnce/cond lazily build the conditions client all task slots
	// share, with its parked connections to the proxy.
	condOnce sync.Once
	cond     *frontier.Client

	// swOnce/sw lazily build the client to the proxy that every task
	// slot's parrot mount shares; swErr is a ProxyURL it cannot reach.
	swOnce sync.Once
	sw     *wire.HTTPClient
	swErr  error

	// probed is set once the machine-compatibility probe (is the scratch
	// directory writable?) has passed: it runs with the process's first
	// tasks, not every task.
	probed atomic.Bool

	// pileup is the last pile-up sample fetched, good for as long as the
	// storage element reports the same path, size and CRC for it.
	pileupMu sync.Mutex
	pileup   pileupSample
}

type pileupSample struct {
	path string
	crc  uint32
	data []byte
}

// chirpPool returns the Env's shared connection pool, building it on
// first use (ChirpAddr must be set by then).
func (e *Env) chirpPool() *chirp.Pool {
	e.poolOnce.Do(func() {
		e.pool = chirp.NewPool(chirp.PoolOptions{
			Addr:      e.ChirpAddr,
			Size:      8,
			Retry:     e.ChirpRetry,
			Fault:     e.Fault,
			Telemetry: e.Telemetry,
		})
	})
	return e.pool
}

// conditions returns the Env's shared conditions client, building it on
// first use (ProxyURL must be set by then).
func (e *Env) conditions() *frontier.Client {
	e.condOnce.Do(func() { e.cond = &frontier.Client{Base: e.ProxyURL} })
	return e.cond
}

// Close releases the Env's pooled chirp, conditions and software
// connections.
func (e *Env) Close() error {
	var err error
	if e.cond != nil {
		err = e.cond.Close()
	}
	if e.sw != nil {
		err = cmp.Or(e.sw.Close(), err)
	}
	if e.pool != nil {
		err = cmp.Or(e.pool.Close(), err)
	}
	return err
}

// RemoteFile is the minimal streaming-read interface executors need:
// the handle reports its size and serves positioned reads. *xrootd.File
// satisfies it; tests can stub it.
type RemoteFile interface {
	Size() int64
	ReadAt(p []byte, off int64) (int, error)
	Close() error
}

// initTask is env_init's common part: it reads the task's argument
// record rec into a, each zero field replaced by the executors' default for
// it, and builds the kernel the record describes. A task without
// arguments runs on the defaults; a record that describes no kernel fails
// the task here.
func initTask(rec, a *wrapper.Args) (*Kernel, error) {
	*a = wrapper.Args{}
	if rec != nil {
		*a = *rec
	}
	a.Run, a.EventSize = cmp.Or(a.Run, 1), cmp.Or(a.EventSize, DefaultEventSize)
	a.Work, a.Seed = cmp.Or(a.Work, 1), cmp.Or(a.Seed, 1)
	return NewKernel(a.EventSize, a.Work)
}

// taskState is what each executor's per-task record holds: the task's
// argument record and kernel, read in env_init, the output its execute
// step leaves for stage-out, and the wrapper's report and step context.
// A record is built once with its step closures and reused task after
// task from its executor's pool (reusing); run clears what a task leaves.
type taskState struct {
	env    *Env
	ctx    *wq.ExecContext // the running task's, nil between tasks
	args   wrapper.Args
	kernel Kernel
	output *[]byte // reduced result, borrowed until the wrapper is done
	rep    wrapper.Report
	step   wrapper.StepContext
	steps  []wrapper.Step
}

// run runs ctx's task through t's steps and returns its report, t's
// until t's next task.
func (t *taskState) run(ctx *wq.ExecContext) *wrapper.Report {
	t.ctx = ctx
	wrapper.Run(&t.rep, &t.step, t.env.Fault, ctx.Tracer, ctx.Trace, t.steps...)
	// The output only once the wrapper is done: stage-out may replay it.
	bufpool.PutSized(t.output)
	t.output, t.ctx = nil, nil
	return &t.rep
}

// initKernel is env_init's common step: the task's arguments and kernel.
func (t *taskState) initKernel(*wrapper.StepContext) error {
	k, err := initTask(t.ctx.Task.Args, &t.args)
	if err != nil {
		return err
	}
	t.kernel = *k
	return nil
}

// software is the software segment, warmSoftware for t's task.
func (t *taskState) software(c *wrapper.StepContext) error { return t.env.warmSoftware(t.ctx, c) }

// stageOut is the stage-out segment: the execute step's output to the
// task's output path.
func (t *taskState) stageOut(c *wrapper.StepContext) error {
	return t.env.stageOut(t.ctx, c, t.args.Output, *t.output)
}

// Analysis returns the executor for data-analysis tasks: software setup via
// parrot, conditions via frontier, event data via xrootd (streamed or
// staged), reduction via the kernel, stage-out via chirp.
func Analysis(env *Env) wq.Executor {
	return reusing(func() *analysisTask { return newAnalysisTask(env) })
}

// taskRunner is a per-task state record: it runs one task at a time.
type taskRunner interface {
	run(*wq.ExecContext) *wrapper.Report
}

// reusing returns an executor that runs each task on a state record from
// a pool of its own: a worker builds a record, and its step closures, for
// each task it runs at a time (and again only after the collector has
// emptied the pool), not for every task.
func reusing[T taskRunner](build func() T) wq.Executor {
	pool := sync.Pool{New: func() any { return build() }}
	return func(ctx *wq.ExecContext) error {
		t := pool.Get().(T)
		defer pool.Put(t)
		return finish(ctx, t.run(ctx))
	}
}

// finish hands the wrapper report to the worker — it rides the result
// frame as a typed field, encoded once on its way to the master — and
// turns a failed segment into the task's exit code.
func finish(ctx *wq.ExecContext, rep *wrapper.Report) error {
	ctx.SetReport(rep)
	if rep.ExitCode != 0 {
		return &wq.ExitError{Code: rep.ExitCode, Msg: string(rep.Failed)}
	}
	return nil
}

// probeScratch checks that the scratch directory sandboxes are made in is
// writable, until it once was: only success is remembered, so a transient
// failure costs the tasks that saw it and no later one.
func (e *Env) probeScratch(ctx *wq.ExecContext) error {
	if e.probed.Load() {
		return nil
	}
	// Per task, so that concurrent first tasks do not remove each other's.
	probe := ctx.Sandbox() + ".probe"
	err := os.WriteFile(probe, nil, 0o644)
	if err == nil {
		err = os.Remove(probe)
	}
	if err != nil {
		return fmt.Errorf("scratch directory not writable: %w", err)
	}
	e.probed.Store(true)
	return nil
}

// warmSoftware is the software segment: mount the release through the
// node-local cache and touch every file of it.
func (e *Env) warmSoftware(ctx *wq.ExecContext, c *wrapper.StepContext) error {
	if e.ProxyURL == "" {
		return nil // software delivery disabled (unit tests)
	}
	inst, err := e.Cache.Instance(fmt.Sprintf("task-%d", ctx.Task.ID))
	if err != nil {
		return err
	}
	e.swOnce.Do(func() { e.sw, e.swErr = wire.NewHTTPClient(e.ProxyURL) })
	if e.swErr != nil {
		return e.swErr
	}
	mount, err := parrot.NewMount(e.ProxyURL, e.Repo, inst, e.sw.WithTrace(c.Trace))
	if err != nil {
		return err
	}
	warm, err := mount.WarmRelease(e.ReleasePath)
	if err != nil {
		return err
	}
	c.Metrics = wrapper.Metrics{CacheHits: float64(warm.Hits), CacheMisses: float64(warm.Misses), BytesFetched: float64(warm.BytesFetched)}
	return nil
}

// stageOut is the stage-out segment: the output goes to the storage
// element over chirp. A task that names an output fails here when there is
// no storage element, since the sandbox goes when the task ends; only a
// task that names none leaves its output in the sandbox.
func (e *Env) stageOut(ctx *wq.ExecContext, c *wrapper.StepContext, out string, output []byte) error {
	if out == "" {
		if err := ctx.EnsureSandbox(); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(ctx.Sandbox(), "output.root"), output, 0o644)
	}
	if e.ChirpAddr == "" {
		return fmt.Errorf("output %s: no storage element to stage it out to", out)
	}
	// An attempt whose worker lost its master has been requeued: its put
	// would land after, or over, the accepted attempt's output.
	if err := ctx.Err(); err != nil {
		return err
	}
	// PutFile is idempotent, so the pool may replay it freely; the
	// payload streams through the pooled connection's shared flush.
	if err := e.chirpPool().DoTraced(c.Tracer, c.Trace, func(cc *chirp.Client) error {
		return cc.PutFile(out, output)
	}); err != nil {
		return err
	}
	c.Metrics.BytesOut = float64(len(output))
	return nil
}

// analysisTask is an analysis executor's per-task record: the common
// state, and what stage-in leaves for execute.
type analysisTask struct {
	taskState
	input *[]byte    // staged content (stage mode), borrowed
	file  RemoteFile // open handle (stream mode), execute's to close
}

func newAnalysisTask(env *Env) *analysisTask {
	t := &analysisTask{taskState: taskState{env: env}}
	t.steps = []wrapper.Step{
		{Segment: wrapper.SegEnvInit, Run: t.envInit},
		{Segment: wrapper.SegSoftware, Run: t.software},
		{Segment: wrapper.SegConditions, Run: t.conditions},
		{Segment: wrapper.SegStageIn, Run: t.stageIn},
		{Segment: wrapper.SegExecute, Run: t.execute},
		{Segment: wrapper.SegStageOut, Run: t.stageOut},
	}
	return t
}

// run runs one analysis task, and returns what it borrowed and closes
// what it opened if a failure stopped it before execute did.
func (t *analysisTask) run(ctx *wq.ExecContext) *wrapper.Report {
	defer t.releaseInput()
	defer t.closeFile()
	return t.taskState.run(ctx)
}

// releaseInput returns the staged range to the pool: as soon as execute
// has reduced it, or on the way out if execute never ran.
func (t *analysisTask) releaseInput() {
	bufpool.PutSized(t.input)
	t.input = nil
}

// closeFile closes the streamed input: when execute has read it, or on
// the way out if execute never ran.
func (t *analysisTask) closeFile() {
	if t.file != nil {
		t.file.Close()
		t.file = nil
	}
}

func (t *analysisTask) envInit(c *wrapper.StepContext) error {
	if err := t.initKernel(c); err != nil {
		return err
	}
	return t.env.probeScratch(t.ctx)
}

func (t *analysisTask) conditions(c *wrapper.StepContext) error {
	env := t.env
	if env.ConditionsTag == "" || env.ProxyURL == "" {
		return nil
	}
	p, err := env.conditions().FetchTraced(env.ConditionsTag, t.args.Run, c.Trace)
	if err != nil {
		return err
	}
	c.Metrics.ConditionsBytes = float64(len(p.Data))
	return nil
}

func (t *analysisTask) stageIn(c *wrapper.StepContext) error {
	if t.args.LFN == "" {
		return fmt.Errorf("analysis task needs an lfn")
	}
	if t.env.Open == nil {
		return fmt.Errorf("no data access configured")
	}
	f, err := t.env.Open(t.args.LFN, c.Tracer, c.Trace)
	if err != nil {
		return err
	}
	if t.args.Mode == "stage" {
		// Staging: pull the task's event range before processing.
		defer f.Close()
		lo, hi := eventRange(&t.kernel, f.Size(), &t.args)
		if t.input, err = stageRange(f, lo, hi-lo); err != nil {
			return err
		}
		c.Metrics.BytesIn = float64(len(*t.input))
		return nil
	}
	t.file = f // streaming: reads happen during execute
	return nil
}

func (t *analysisTask) execute(c *wrapper.StepContext) error {
	var events int
	if t.input != nil {
		defer t.releaseInput()
		t.output = bufpool.GetSized(t.kernel.DigestBytes(len(*t.input)))
		*t.output, events = t.kernel.AppendDigests((*t.output)[:0], *t.input)
	} else {
		defer t.closeFile()
		var err error
		var streamed int64
		lo, hi := eventRange(&t.kernel, t.file.Size(), &t.args)
		t.output, events, streamed, err = processStreaming(&t.kernel, t.file, lo, hi)
		if err != nil {
			return err
		}
		c.Metrics.BytesIn = float64(streamed)
	}
	c.Metrics.Events = float64(events)
	return nil
}

// eventRange maps the task's SkipEvents/MaxEvents to a byte range within
// the file; MaxEvents <= 0 means "to end of file". This is how a task
// covering a subset of a file's lumisections addresses its share.
func eventRange(k *Kernel, size int64, args *wrapper.Args) (lo, hi int64) {
	skip := int64(args.SkipEvents)
	max := int64(args.MaxEvents)
	lo = skip * int64(k.EventSize)
	if lo > size {
		lo = size
	}
	if max <= 0 {
		return lo, size
	}
	hi = lo + max*int64(k.EventSize)
	if hi > size {
		hi = size
	}
	return lo, hi
}

// chunkEvents is how many events the executors hold in memory at once
// when they work through a task's sample chunk by chunk. A multiple of 8,
// so a chunk is a whole number of 8-byte RNG draws at any event size.
const chunkEvents = 64

// processStreaming reads the byte range [lo, hi) in event-aligned chunks,
// reducing as it goes — I/O and CPU interleave, which is what makes
// streaming win in the paper's Figure 4. Each chunk is filled the way
// stage mode fills its range, continuing a short answer, so every chunk
// starts on an event; a replica with nothing more ends the stream after
// the whole events it served.
// The output is borrowed at its final size, as far as the largest class
// goes (hi comes from the replica's open reply); the caller returns it.
func processStreaming(k *Kernel, f RemoteFile, lo, hi int64) (out *[]byte, events int, streamed int64, err error) {
	buf := bufpool.GetSized(chunkEvents * k.EventSize)
	defer bufpool.PutSized(buf)
	chunk := *buf
	out = bufpool.GetSized(min(k.DigestBytes(int(hi-lo)), bufpool.MaxSized))
	*out = (*out)[:0]
	src := &rangeReader{f: f, off: lo}
	for src.off < hi {
		n, err := io.ReadFull(src, chunk[:min(int64(len(chunk)), hi-src.off)])
		if err != nil && err != io.ErrUnexpectedEOF {
			return out, 0, streamed, err
		}
		streamed += int64(n)
		var ne int
		*out, ne = k.AppendDigests(*out, chunk[:n])
		events += ne
		if err != nil {
			break
		}
	}
	return out, events, streamed, nil
}

// Simulation returns the executor for Monte Carlo simulation tasks: heavy
// CPU generation, a small pile-up input streamed from the local storage
// element over chirp, and chirp stage-out. External bandwidth demand is
// orders of magnitude below analysis, matching §6.
func Simulation(env *Env) wq.Executor {
	return reusing(func() *simulationTask { return newSimulationTask(env) })
}

// pileupSample returns the pile-up sample at path. One stat tells
// whether the copy the last task left on the Env is still what the
// storage element holds; only a changed or first-seen sample is fetched.
func (e *Env) pileupSample(cc *chirp.Client, path string) ([]byte, error) {
	info, crc, err := cc.StatCRC(path)
	if err != nil {
		return nil, err
	}
	e.pileupMu.Lock()
	held := e.pileup
	e.pileupMu.Unlock()
	if held.path == path && held.crc == crc && int64(len(held.data)) == info.Size {
		return held.data, nil
	}
	data, err := cc.GetFile(path)
	if err != nil {
		return nil, err
	}
	e.pileupMu.Lock()
	e.pileup = pileupSample{path: path, crc: crc32.ChecksumIEEE(data), data: data}
	e.pileupMu.Unlock()
	return data, nil
}

// simulationTask is a simulation executor's per-task record: the common
// state, and the pile-up sample stage-in leaves for execute.
type simulationTask struct {
	taskState
	pileup []byte // shared with other tasks: read only
}

func newSimulationTask(env *Env) *simulationTask {
	t := &simulationTask{taskState: taskState{env: env}}
	t.steps = []wrapper.Step{
		{Segment: wrapper.SegEnvInit, Run: t.initKernel},
		{Segment: wrapper.SegSoftware, Run: t.software},
		{Segment: wrapper.SegStageIn, Run: t.stageIn},
		{Segment: wrapper.SegExecute, Run: t.execute},
		{Segment: wrapper.SegStageOut, Run: t.stageOut},
	}
	return t
}

func (t *simulationTask) run(ctx *wq.ExecContext) *wrapper.Report {
	t.pileup = nil
	return t.taskState.run(ctx)
}

func (t *simulationTask) stageIn(c *wrapper.StepContext) error {
	env, pu := t.env, t.args.Pileup
	if pu == "" || env.ChirpAddr == "" {
		return nil // pile-up overlay disabled
	}
	if err := env.chirpPool().DoTraced(c.Tracer, c.Trace, func(cc *chirp.Client) error {
		var gerr error
		t.pileup, gerr = env.pileupSample(cc, pu)
		return gerr
	}); err != nil {
		return err
	}
	c.Metrics.BytesIn = float64(len(t.pileup))
	return nil
}

func (t *simulationTask) execute(c *wrapper.StepContext) error {
	n, k := t.args.Events, &t.kernel
	if n <= 0 {
		return fmt.Errorf("simulation task needs events > 0")
	}
	rng := stats.NewRand(uint64(t.args.Seed))
	// Generate, overlay and reduce a chunk of events at a time: a whole
	// number of 8-byte RNG draws per chunk keeps the signal byte-identical
	// to generating it whole, and the task's working set is one borrowed
	// chunk, not its whole sample.
	buf := bufpool.GetSized(chunkEvents * k.EventSize)
	defer bufpool.PutSized(buf)
	t.output = bufpool.GetSized(k.DigestBytes(n * k.EventSize))
	*t.output = (*t.output)[:0]
	for first := 0; first < n; first += chunkEvents {
		signal := (*buf)[:min(chunkEvents, n-first)*k.EventSize]
		rng.Fill(signal)
		if t.pileup != nil {
			if err := k.OverlayPileupAt(signal, t.pileup, first); err != nil {
				return err
			}
		}
		*t.output, _ = k.AppendDigests(*t.output, signal)
	}
	c.Metrics.Events = float64(n)
	return nil
}

// stageRange reads the n bytes of f from lo into memory. n follows from
// the size the replica's open announced: up to bufpool.MaxSized it takes
// one buffer of its class, filled by a single ranged read and the caller's
// to give back whatever the error; above that, a bufpool.Arrival.
func stageRange(f RemoteFile, lo, n int64) (*[]byte, error) {
	src := &rangeReader{f: f, off: lo}
	if n <= bufpool.MaxSized {
		buf := bufpool.GetSized(int(n))
		_, err := io.ReadFull(src, *buf)
		return buf, err
	}
	land := bufpool.Arrival{Announced: n}
	_, err := land.ReadFrom(src)
	staged := land.Bytes()
	return &staged, err
}

// rangeReader reads f sequentially from off for a caller that asks for
// no more than was announced: a replica with nothing there fell short.
type rangeReader struct {
	f   RemoteFile
	off int64
}

func (r *rangeReader) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	if n == 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
