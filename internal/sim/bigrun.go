package sim

import (
	"fmt"
	"math"

	"lobster/internal/monitor"
	"lobster/internal/simevent"
	"lobster/internal/stats"
)

// BigRunConfig describes an at-scale production run: the 10k-core data
// processing run of Figures 8–10 or the 20k-core simulation run of
// Figure 11. All times are seconds, all sizes bytes.
type BigRunConfig struct {
	Name           string
	Workers        int // worker pilots
	CoresPerWorker int // paper: 8 cores sharing one cache
	Duration       float64
	RampUp         float64    // pilots join uniformly over [0, RampUp]
	Survival       stats.Dist // time-to-eviction per worker life; nil = none
	RestartDelay   float64    // batch re-grant delay after an eviction

	// Task population. TotalTasks == 0 sizes the pool to fill the window.
	TotalTasks       int
	TaskCPU          stats.Dist
	InputBytes       float64 // WAN-streamed input per task (analysis runs)
	PileupBytes      float64 // chirp-staged input per task (simulation runs)
	OutputBytes      float64
	DispatchOverhead stats.Dist // WQ sandbox/task send time

	// Wide-area network shared by all streaming tasks.
	WANBandwidth                 float64
	WANOutageStart, WANOutageEnd float64 // transient federation outage
	// OutageFailDelay is how long a task flails before failing when the
	// federation is down (client retries and timeouts; default 1200 s).
	OutageFailDelay float64

	// Software delivery (squid + parrot cache).
	ColdCacheBytes       float64 // per worker, first task of each life
	HotSetupTime         float64 // per task with a warm cache
	ProxyBandwidth       float64 // aggregate squid capacity
	ClientBandwidth      float64 // per-worker pull cap
	SetupTimeout         float64 // setups beyond this may fail (squid timeout)
	SetupTimeoutFailProb float64
	MiscFailProb         float64 // transient application failures (exit 50)

	// Storage element.
	ChirpSlots     int
	ChirpBandwidth float64

	MaxAttempts int // per task before giving up (generous; default 10)
	Seed        uint64
}

// Exit codes used by the big-run model, matching the wrapper's segment
// codes where applicable.
const (
	ExitSetupTimeout = 20  // software setup (squid) failure
	ExitWANOutage    = 40  // stage-in / federation failure
	ExitMisc         = 50  // transient application failure
	ExitEvicted      = 137 // worker preempted mid-task
)

// DataRunConfig returns the Figure 8/9/10 configuration at the given scale
// factor (1.0 = the paper's ~10k cores over two days; tests and quick
// benches use 0.1–0.25). Calibration: ~450 MB streamed per ~40 min of CPU
// keeps the fully-ramped run saturating the 10 Gbit/s campus link at just
// the point where CPU/wall ≈ 0.65–0.70, the paper's observed ceiling.
func DataRunConfig(scale float64) BigRunConfig {
	if scale <= 0 {
		scale = 1
	}
	workers := int(math.Round(1250 * scale))
	if workers < 10 {
		workers = 10
	}
	return BigRunConfig{
		Name:             "data-processing",
		Workers:          workers,
		CoresPerWorker:   8,
		Duration:         48 * 3600,
		RampUp:           4 * 3600,
		Survival:         stats.Weibull{K: 0.7, Lambda: 11 * 3600},
		RestartDelay:     600,
		TaskCPU:          stats.Gaussian{Mu: 2400, Sigma: 600, Floor: 300},
		InputBytes:       450e6,
		OutputBytes:      45e6,
		DispatchOverhead: stats.Gaussian{Mu: 240, Sigma: 80, Floor: 20},
		WANBandwidth:     1.25e9 * scale, // the 10 Gbit/s campus uplink
		WANOutageStart:   22 * 3600,
		WANOutageEnd:     25 * 3600,
		OutageFailDelay:  1800,
		ColdCacheBytes:   1.5e9,
		HotSetupTime:     30,
		ProxyBandwidth:   12.5e9 * scale,
		ClientBandwidth:  5e7,
		SetupTimeout:     7200,
		MiscFailProb:     0.004,
		ChirpSlots:       int(math.Max(8, 64*scale)),
		ChirpBandwidth:   1.25e9 * scale,
		Seed:             1,
	}
}

// SimRunConfig returns the Figure 11 configuration at the given scale
// (1.0 = ~20k cores over eight hours). The squid capacity is deliberately
// under-provisioned relative to the cold-start wave — the paper's deployed
// squid "had trouble serving up the data required to create the software
// environment fast enough", peaking release-setup times near 400 minutes.
func SimRunConfig(scale float64) BigRunConfig {
	if scale <= 0 {
		scale = 1
	}
	workers := int(math.Round(2500 * scale))
	if workers < 10 {
		workers = 10
	}
	return BigRunConfig{
		Name:                 "simulation",
		Workers:              workers,
		CoresPerWorker:       8,
		Duration:             8 * 3600,
		RampUp:               1800,
		Survival:             stats.Weibull{K: 0.8, Lambda: 24 * 3600},
		RestartDelay:         600,
		TaskCPU:              stats.Gaussian{Mu: 1500, Sigma: 400, Floor: 200},
		PileupBytes:          20e6,
		OutputBytes:          30e6,
		DispatchOverhead:     stats.Gaussian{Mu: 30, Sigma: 10, Floor: 5},
		WANBandwidth:         1.25e9 * scale, // barely used: pile-up is local
		ColdCacheBytes:       1.5e9,
		HotSetupTime:         20,
		ProxyBandwidth:       1.7e8 * scale, // one overwhelmed squid
		ClientBandwidth:      5e7,
		SetupTimeout:         7200,
		SetupTimeoutFailProb: 0.05,
		MiscFailProb:         0.004,
		ChirpSlots:           int(math.Max(8, 48*scale)),
		ChirpBandwidth:       2.5e8 * scale,
		Seed:                 1,
	}
}

// BigRunResult carries the simulated run's records and aggregates.
type BigRunResult struct {
	Config      BigRunConfig
	Monitor     *monitor.Monitor
	TasksDone   int
	TasksFailed int
	Evictions   int
	WANBytes    float64 // total bytes streamed over the WAN
	ChirpBytes  float64
	PeakCores   int // peak concurrently-running tasks
}

// taskPool hands out task attempts.
type taskPool struct {
	remaining int
	attempts  map[int]int
	nextID    int
	requeued  []int
	maxTries  int
}

func (tp *taskPool) take() (id int, ok bool) {
	if n := len(tp.requeued); n > 0 {
		id = tp.requeued[n-1]
		tp.requeued = tp.requeued[:n-1]
		return id, true
	}
	if tp.remaining <= 0 {
		return 0, false
	}
	tp.remaining--
	tp.nextID++
	return tp.nextID, true
}

// requeue returns the task to the pool for another attempt if it has
// attempts left.
func (tp *taskPool) requeue(id int) {
	tp.attempts[id]++
	if tp.attempts[id] < tp.maxTries {
		tp.requeued = append(tp.requeued, id)
	}
}

// RunBig executes the model and returns its result. Deterministic for a
// given config.
func RunBig(cfg BigRunConfig) (*BigRunResult, error) {
	if cfg.Workers <= 0 || cfg.CoresPerWorker <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("sim: invalid big-run config %+v", cfg)
	}
	if cfg.TaskCPU == nil || cfg.DispatchOverhead == nil {
		return nil, fmt.Errorf("sim: big-run config needs TaskCPU and DispatchOverhead")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.OutageFailDelay <= 0 {
		cfg.OutageFailDelay = 1200
	}
	cores := cfg.Workers * cfg.CoresPerWorker
	if cfg.TotalTasks == 0 {
		meanTask := cfg.TaskCPU.Mean() * 1.6 // rough wall estimate incl. I/O
		cfg.TotalTasks = int(float64(cores) * cfg.Duration / meanTask)
	}

	s := simevent.New()
	rng := stats.NewRand(cfg.Seed)
	res := &BigRunResult{Config: cfg, Monitor: monitor.New()}
	wan := simevent.NewLink(s, cfg.WANBandwidth)
	proxy := simevent.NewLink(s, cfg.ProxyBandwidth)
	chirpSlots := simevent.NewResource(s, cfg.ChirpSlots)
	chirpLink := simevent.NewLink(s, cfg.ChirpBandwidth)
	pool := &taskPool{remaining: cfg.TotalTasks, attempts: make(map[int]int), maxTries: cfg.MaxAttempts}

	running := 0
	recordID := int64(0)

	for w := 0; w < cfg.Workers; w++ {
		startAt := rng.Float64() * cfg.RampUp
		wrng := rng.Split()
		s.Go(func(p *simevent.Proc) {
			p.Wait(startAt)
			for p.Now() < cfg.Duration {
				life := &workerLife{cold: true, sig: simevent.NewSignal(s)}
				span := math.Inf(1)
				if cfg.Survival != nil {
					span = cfg.Survival.Sample(wrng)
				}
				// Spawn the core slots of this life.
				coreProcs := make([]*simevent.Proc, 0, cfg.CoresPerWorker)
				for c := 0; c < cfg.CoresPerWorker; c++ {
					crng := wrng.Split()
					cp := s.Go(func(p *simevent.Proc) {
						runCoreSlot(p, &cfg, life, pool, crng,
							wan, proxy, chirpSlots, chirpLink,
							res, &running, &recordID)
					})
					coreProcs = append(coreProcs, cp)
				}
				if !math.IsInf(span, 1) && p.Now()+span < cfg.Duration {
					p.Wait(span)
					life.dead = true
					res.Evictions++
					for _, cp := range coreProcs {
						cp.Interrupt()
					}
					p.Wait(cfg.RestartDelay)
					continue
				}
				// Life outlasts the run window.
				p.WaitUntil(cfg.Duration)
				life.dead = true
				for _, cp := range coreProcs {
					cp.Interrupt()
				}
				return
			}
		})
	}
	s.Run()
	res.WANBytes = wan.BytesMoved()
	res.ChirpBytes = chirpLink.BytesMoved()
	return res, nil
}

type workerLife struct {
	dead        bool
	cold        bool
	coldRunning bool
	sig         *simevent.Signal
}

// runCoreSlot is one core's task loop for one worker life.
func runCoreSlot(p *simevent.Proc, cfg *BigRunConfig, life *workerLife,
	pool *taskPool, rng *stats.Rand,
	wan, proxy *simevent.Link, chirpSlots *simevent.Resource, chirpLink *simevent.Link,
	res *BigRunResult, running *int, recordID *int64) {

	record := func(rec monitor.TaskRecord) {
		*recordID++
		rec.TaskID = *recordID
		rec.Kind = cfg.Name
		res.Monitor.Add(rec)
	}

	for !life.dead && p.Now() < cfg.Duration {
		taskID, ok := pool.take()
		if !ok {
			return
		}
		start := p.Now()
		*running++
		if *running > res.PeakCores {
			res.PeakCores = *running
		}
		rec := monitor.TaskRecord{
			Worker:   "",
			Submit:   start,
			Dispatch: start,
			Requeues: pool.attempts[taskID],
		}
		fail := func(code int, setup, io, stageOut float64) {
			*running--
			pool.requeue(taskID)
			if code == ExitEvicted && p.Now() >= cfg.Duration-1 {
				// End-of-window cancellation, not a real failure: the run
				// simply stopped with this task in flight.
				return
			}
			rec.Start = start
			rec.Finish = p.Now()
			rec.Return = p.Now()
			rec.ExitCode = code
			rec.SetupTime = setup
			rec.IOTime = io
			rec.StageOut = stageOut
			record(rec)
			res.TasksFailed++
		}

		// WQ dispatch (sandbox and task description send).
		dispatch := cfg.DispatchOverhead.Sample(rng)
		if !p.Wait(dispatch) {
			fail(ExitEvicted, 0, 0, 0)
			return
		}
		rec.WQStageIn = dispatch
		rec.Start = p.Now()

		// Software setup through the proxy layer. The first task of a life
		// fills the cold cache; its slot-mates wait on the shared cache.
		setupStart := p.Now()
		switch {
		case life.cold && !life.coldRunning:
			life.coldRunning = true
			okT := proxy.Transfer(p, cfg.ColdCacheBytes)
			if okT {
				// Client-side bandwidth cap.
				if floor := cfg.ColdCacheBytes / cfg.ClientBandwidth; p.Now()-setupStart < floor {
					okT = p.Wait(floor - (p.Now() - setupStart))
				}
			}
			if !okT {
				life.coldRunning = false
				fail(ExitEvicted, p.Now()-setupStart, 0, 0)
				return
			}
			life.cold = false
			life.sig.Broadcast()
		case life.cold:
			if !life.sig.Await(p) {
				fail(ExitEvicted, p.Now()-setupStart, 0, 0)
				return
			}
		default:
			if !p.Wait(cfg.HotSetupTime) {
				fail(ExitEvicted, p.Now()-setupStart, 0, 0)
				return
			}
		}
		setup := p.Now() - setupStart
		if cfg.SetupTimeout > 0 && setup > cfg.SetupTimeout &&
			rng.Float64() < cfg.SetupTimeoutFailProb {
			fail(ExitSetupTimeout, setup, 0, 0)
			continue
		}
		rec.SetupTime = setup

		// Input: WAN streaming (analysis) and/or chirp staging (pile-up).
		ioStart := p.Now()
		if cfg.InputBytes > 0 {
			if p.Now() >= cfg.WANOutageStart && p.Now() < cfg.WANOutageEnd {
				// Federation down: the access flails through client retries
				// before giving up.
				if !p.Wait(cfg.OutageFailDelay) {
					fail(ExitEvicted, setup, p.Now()-ioStart, 0)
					return
				}
				fail(ExitWANOutage, setup, p.Now()-ioStart, 0)
				continue
			}
			if !wan.Transfer(p, cfg.InputBytes) {
				fail(ExitEvicted, setup, p.Now()-ioStart, 0)
				return
			}
			if p.Now() >= cfg.WANOutageStart && p.Now() < cfg.WANOutageEnd {
				// The outage began mid-stream; the task dies with it.
				fail(ExitWANOutage, setup, p.Now()-ioStart, 0)
				continue
			}
		}
		if cfg.PileupBytes > 0 {
			if !chirpSlots.Acquire(p) {
				fail(ExitEvicted, setup, p.Now()-ioStart, 0)
				return
			}
			okT := chirpLink.Transfer(p, cfg.PileupBytes)
			chirpSlots.Release()
			if !okT {
				fail(ExitEvicted, setup, p.Now()-ioStart, 0)
				return
			}
		}
		io := p.Now() - ioStart
		rec.IOTime = io

		// Transient application failure.
		if rng.Float64() < cfg.MiscFailProb {
			fail(ExitMisc, setup, io, 0)
			continue
		}

		// CPU burst.
		cpu := cfg.TaskCPU.Sample(rng)
		if !p.Wait(cpu) {
			fail(ExitEvicted, setup, io, 0)
			return
		}
		rec.CPUTime = cpu

		// Stage-out through the chirp connection cap.
		outStart := p.Now()
		if !chirpSlots.Acquire(p) {
			fail(ExitEvicted, setup, io, p.Now()-outStart)
			return
		}
		okT := chirpLink.Transfer(p, cfg.OutputBytes)
		chirpSlots.Release()
		if !okT {
			fail(ExitEvicted, setup, io, p.Now()-outStart)
			return
		}
		rec.StageOut = p.Now() - outStart
		// Result collection by the loaded master (the paper's "time spent
		// waiting for responses").
		rec.WQStageOut = stats.Gaussian{Mu: 100, Sigma: 30, Floor: 5}.Sample(rng)

		*running--
		rec.Finish = p.Now()
		rec.Return = p.Now() + rec.WQStageOut
		rec.Metrics = map[string]float64{
			"bytes_in":  cfg.InputBytes + cfg.PileupBytes,
			"bytes_out": cfg.OutputBytes,
		}
		record(rec)
		res.TasksDone++
	}
}
