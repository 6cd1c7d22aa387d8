package hepsim

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lobster/internal/bufpool"
	"lobster/internal/chirp"
	"lobster/internal/faultinject"
	"lobster/internal/frontier"
	"lobster/internal/parrot"
	"lobster/internal/retry"
	"lobster/internal/stats"
	"lobster/internal/telemetry"
	"lobster/internal/trace"
	"lobster/internal/wq"
	"lobster/internal/wrapper"
)

// ReportFile is the sandbox file name the wrapper report is written to;
// tasks declare it as an output so the report travels back to the master.
const ReportFile = "report.json"

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
	// HTTPClient overrides the default client (tests inject one).
	HTTPClient *http.Client
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
			Addr:        e.ChirpAddr,
			Size:        8,
			DialTimeout: 30 * time.Second,
			Retry:       e.ChirpRetry,
			Fault:       e.Fault,
			Telemetry:   e.Telemetry,
		})
	})
	return e.pool
}

// cloneConfig returns a fresh Env with the same configuration and none
// of the lazily-built pool state. Env holds a sync.Once, so it must not
// be copied by value; derive per-task variants through this instead.
func (e *Env) cloneConfig() *Env {
	return &Env{
		ProxyURL:      e.ProxyURL,
		Repo:          e.Repo,
		ReleasePath:   e.ReleasePath,
		Cache:         e.Cache,
		Open:          e.Open,
		ChirpAddr:     e.ChirpAddr,
		ConditionsTag: e.ConditionsTag,
		HTTPClient:    e.HTTPClient,
		Fault:         e.Fault,
		ChirpRetry:    e.ChirpRetry,
		Telemetry:     e.Telemetry,
	}
}

// Close releases the Env's pooled chirp connections.
func (e *Env) Close() error {
	if e.pool != nil {
		return e.pool.Close()
	}
	return nil
}

// RemoteFile is the minimal streaming-read interface executors need:
// the handle reports its size and serves positioned reads. *xrootd.File
// satisfies it; tests can stub it.
type RemoteFile interface {
	Size() int64
	ReadAt(p []byte, off int64) (int, error)
	Close() error
}

// Args understood by the executors (all optional unless stated):
//
//	lfn         analysis: input logical file name (required)
//	mode        analysis: "stream" (default) or "stage"
//	output      chirp path for the task's output file (required if ChirpAddr set)
//	run         experiment run number, for conditions lookup
//	event_size  kernel event size in bytes
//	work        kernel work factor
//	events      simulation: number of events to generate (required)
//	pileup      simulation: chirp path of the pile-up sample
//	seed        simulation: RNG seed
//	delay_ms    testing: artificial per-segment delay

// Analysis returns the executor for data-analysis tasks: software setup via
// parrot, conditions via frontier, event data via xrootd (streamed or
// staged), reduction via the kernel, stage-out via chirp.
func Analysis(env *Env) wq.Executor {
	return func(ctx *wq.ExecContext) error { return finish(ctx, runAnalysis(env, ctx)) }
}

// finish hands the wrapper report to the worker in memory — it travels
// inline in the result message, so it never needs to be a file — and
// turns a failed segment into the task's exit code.
func finish(ctx *wq.ExecContext, rep *wrapper.Report) error {
	ctx.SetOutput(ReportFile, rep.Encode())
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
	probe := ctx.Sandbox + ".probe"
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
	mount, err := parrot.NewMount(e.ProxyURL, e.Repo, inst, trace.WrapClient(e.HTTPClient, c.Trace))
	if err != nil {
		return err
	}
	warm, err := mount.WarmRelease(e.ReleasePath)
	if err != nil {
		return err
	}
	c.SetMetric("cache_hits", float64(warm.Hits))
	c.SetMetric("cache_misses", float64(warm.Misses))
	c.SetMetric("bytes_fetched", float64(warm.BytesFetched))
	return nil
}

// stageOut is the stage-out segment: the output goes to the storage
// element over chirp, or into the sandbox when there is none.
func (e *Env) stageOut(ctx *wq.ExecContext, c *wrapper.StepContext, output []byte) error {
	out := ctx.Task.Args["output"]
	if out == "" || e.ChirpAddr == "" {
		if err := ctx.EnsureSandbox(); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(ctx.Sandbox, "output.root"), output, 0o644)
	}
	// PutFile is idempotent, so the pool may replay it freely; the
	// payload streams through the pooled connection's shared flush.
	if err := e.chirpPool().DoTraced(c.Tracer, c.Trace, func(cc *chirp.Client) error {
		return cc.PutFile(out, output)
	}); err != nil {
		return err
	}
	c.SetMetric("bytes_out", float64(len(output)))
	return nil
}

func runAnalysis(env *Env, ctx *wq.ExecContext) *wrapper.Report {
	args := ctx.Task.Args
	var (
		kernel  *Kernel
		input   *[]byte    // staged content (stage mode), borrowed
		file    RemoteFile // open handle (stream mode)
		output  *[]byte    // reduced result, borrowed
		events  int
		delayMS = argInt(args, "delay_ms", 0)
	)
	// The staged range goes back to the pool as soon as execute has
	// reduced it, or on the way out if execute never ran; the output
	// only once the wrapper is done, because stage-out may replay it.
	releaseInput := func() {
		bufpool.PutSized(input)
		input = nil
	}
	defer releaseInput()
	defer func() { bufpool.PutSized(output) }()
	return wrapper.Run(env.Fault, ctx.Tracer, ctx.Trace,
		wrapper.Step{Segment: wrapper.SegEnvInit, Run: func(c *wrapper.StepContext) error {
			sleepMS(delayMS)
			var err error
			kernel, err = NewKernel(argInt(args, "event_size", DefaultEventSize), argInt(args, "work", 1))
			if err != nil {
				return err
			}
			return env.probeScratch(ctx)
		}},
		wrapper.Step{Segment: wrapper.SegSoftware, Run: func(c *wrapper.StepContext) error {
			return env.warmSoftware(ctx, c)
		}},
		wrapper.Step{Segment: wrapper.SegConditions, Run: func(c *wrapper.StepContext) error {
			if env.ConditionsTag == "" || env.ProxyURL == "" {
				return nil
			}
			run := argInt(args, "run", 1)
			cl := &frontier.Client{Base: env.ProxyURL, Client: trace.WrapClient(env.HTTPClient, c.Trace)}
			p, err := cl.Fetch(env.ConditionsTag, run)
			if err != nil {
				return err
			}
			c.SetMetric("conditions_bytes", float64(len(p.Data)))
			return nil
		}},
		wrapper.Step{Segment: wrapper.SegStageIn, Run: func(c *wrapper.StepContext) error {
			lfn := args["lfn"]
			if lfn == "" {
				return fmt.Errorf("analysis task needs an lfn")
			}
			if env.Open == nil {
				return fmt.Errorf("no data access configured")
			}
			f, err := env.Open(lfn, c.Tracer, c.Trace)
			if err != nil {
				return err
			}
			if args["mode"] == "stage" {
				// Staging: pull the task's event range before processing.
				defer f.Close()
				lo, hi := eventRange(kernel, f.Size(), args)
				if input, err = stageRange(f, lo, hi-lo); err != nil {
					return err
				}
				c.SetMetric("bytes_in", float64(len(*input)))
				return nil
			}
			file = f // streaming: reads happen during execute
			return nil
		}},
		wrapper.Step{Segment: wrapper.SegExecute, Run: func(c *wrapper.StepContext) error {
			sleepMS(delayMS)
			if input != nil {
				defer releaseInput()
				output = bufpool.GetSized(kernel.DigestBytes(len(*input)))
				*output, events = kernel.AppendDigests((*output)[:0], *input)
			} else {
				defer file.Close()
				var err error
				var streamed int64
				lo, hi := eventRange(kernel, file.Size(), args)
				output, events, streamed, err = processStreaming(kernel, file, lo, hi)
				if err != nil {
					return err
				}
				c.SetMetric("bytes_in", float64(streamed))
			}
			c.SetMetric("events", float64(events))
			return nil
		}},
		wrapper.Step{Segment: wrapper.SegStageOut, Run: func(c *wrapper.StepContext) error {
			return env.stageOut(ctx, c, *output)
		}},
	)
}

// eventRange maps the task's skip_events/max_events args to a byte range
// within the file; max_events <= 0 means "to end of file". This is how a
// task covering a subset of a file's lumisections addresses its share.
func eventRange(k *Kernel, size int64, args map[string]string) (lo, hi int64) {
	skip := int64(argInt(args, "skip_events", 0))
	max := int64(argInt(args, "max_events", 0))
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
// streaming win in the paper's Figure 4.
// The output is borrowed at its final size, as far as the largest class
// goes (hi comes from the replica's open reply); the caller returns it.
func processStreaming(k *Kernel, f RemoteFile, lo, hi int64) (out *[]byte, events int, streamed int64, err error) {
	buf := bufpool.GetSized(chunkEvents * k.EventSize)
	defer bufpool.PutSized(buf)
	chunk := *buf
	out = bufpool.GetSized(min(k.DigestBytes(int(hi-lo)), bufpool.MaxSized))
	*out = (*out)[:0]
	off := lo
	for off < hi {
		want := int64(len(chunk))
		if hi-off < want {
			want = hi - off
		}
		n, err := f.ReadAt(chunk[:want], off)
		if err != nil {
			return out, 0, streamed, err
		}
		if n == 0 {
			break
		}
		streamed += int64(n)
		off += int64(n)
		var ne int
		*out, ne = k.AppendDigests(*out, chunk[:n])
		events += ne
	}
	return out, events, streamed, nil
}

// Simulation returns the executor for Monte Carlo simulation tasks: heavy
// CPU generation, a small pile-up input streamed from the local storage
// element over chirp, and chirp stage-out. External bandwidth demand is
// orders of magnitude below analysis, matching §6.
func Simulation(env *Env) wq.Executor {
	return func(ctx *wq.ExecContext) error { return finish(ctx, runSimulation(env, ctx)) }
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

func runSimulation(env *Env, ctx *wq.ExecContext) *wrapper.Report {
	args := ctx.Task.Args
	var (
		kernel *Kernel
		pileup []byte  // shared with other tasks: read only
		output *[]byte // reduced result, borrowed until the wrapper is done
	)
	defer func() { bufpool.PutSized(output) }()
	return wrapper.Run(env.Fault, ctx.Tracer, ctx.Trace,
		wrapper.Step{Segment: wrapper.SegEnvInit, Run: func(c *wrapper.StepContext) error {
			var err error
			kernel, err = NewKernel(argInt(args, "event_size", DefaultEventSize), argInt(args, "work", 1))
			return err
		}},
		wrapper.Step{Segment: wrapper.SegSoftware, Run: func(c *wrapper.StepContext) error {
			return env.warmSoftware(ctx, c)
		}},
		wrapper.Step{Segment: wrapper.SegStageIn, Run: func(c *wrapper.StepContext) error {
			pu := args["pileup"]
			if pu == "" || env.ChirpAddr == "" {
				return nil // pile-up overlay disabled
			}
			if err := env.chirpPool().DoTraced(c.Tracer, c.Trace, func(cc *chirp.Client) error {
				var gerr error
				pileup, gerr = env.pileupSample(cc, pu)
				return gerr
			}); err != nil {
				return err
			}
			c.SetMetric("bytes_in", float64(len(pileup)))
			return nil
		}},
		wrapper.Step{Segment: wrapper.SegExecute, Run: func(c *wrapper.StepContext) error {
			n := argInt(args, "events", 0)
			if n <= 0 {
				return fmt.Errorf("simulation task needs events > 0")
			}
			seed := uint64(argInt(args, "seed", 1))
			rng := stats.NewRand(seed)
			// Generate, overlay and reduce a chunk of events at a time: a
			// whole number of 8-byte RNG draws per chunk keeps the signal
			// byte-identical to generating it whole, and the task's
			// working set is one borrowed chunk, not its whole sample.
			buf := bufpool.GetSized(chunkEvents * kernel.EventSize)
			defer bufpool.PutSized(buf)
			output = bufpool.GetSized(kernel.DigestBytes(n * kernel.EventSize))
			*output = (*output)[:0]
			for first := 0; first < n; first += chunkEvents {
				signal := (*buf)[:min(chunkEvents, n-first)*kernel.EventSize]
				kernel.GenerateInto(signal, rng)
				if pileup != nil {
					if err := kernel.OverlayPileupAt(signal, pileup, first); err != nil {
						return err
					}
				}
				*output, _ = kernel.AppendDigests(*output, signal)
			}
			c.SetMetric("events", float64(n))
			return nil
		}},
		wrapper.Step{Segment: wrapper.SegStageOut, Run: func(c *wrapper.StepContext) error {
			return env.stageOut(ctx, c, *output)
		}},
	)
}

func argInt(args map[string]string, key string, def int) int {
	if v, ok := args[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func sleepMS(ms int) {
	if ms > 0 {
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
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
