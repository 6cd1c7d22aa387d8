package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"lobster/internal/chirp"
	"lobster/internal/deploy"
	"lobster/internal/frontier"
	"lobster/internal/hdfs"
	"lobster/internal/hepsim"
	"lobster/internal/monitor"
	"lobster/internal/parrot"
	"lobster/internal/stats"
	"lobster/internal/store"
	"lobster/internal/trace"
	"lobster/internal/wq"
	"lobster/internal/xrootd"
)

// The probes call each layer's public functions directly on an otherwise
// idle stack, from one goroutine, over fixed byte and iteration counts, so
// a per-layer number has a base that does not move with the workloads. Each
// probe is the median of probeReps timed repetitions, every repetition
// wrapped in a benchmark-owned span; the base is recorded beside the number.
const probeReps = 5

const (
	probeEvent = 4096      // bytes per event, the stream-bulk shape
	probeChunk = 256 << 10 // the streaming executor's ReadAt size at that shape
)

// prober times repetitions and files the medians.
type prober struct {
	m      *metrics
	tracer *trace.Tracer // nil unless spans are wanted
	err    error         // first failure; later probes are skipped
}

// mbps records name as megabytes per second over n bytes per call of fn.
func (p *prober) mbps(name string, n int, fn func() error) {
	p.measure(name, fmt.Sprintf("%d KiB", n>>10), func(d float64) float64 { return float64(n) / 1e6 / d }, fn)
}

// each records name as time per operation in the metric's unit (perSecond =
// units in a second), calling fn n times per repetition.
func (p *prober) each(name string, n int, perSecond float64, fn func(i int) error) {
	p.measure(name, fmt.Sprintf("%d ops", n), func(d float64) float64 { return d * perSecond / float64(n) }, func() error {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

func (p *prober) measure(name, base string, conv func(seconds float64) float64, fn func() error) {
	if p.err != nil {
		return
	}
	var vals []float64
	for i := 0; i < probeReps; i++ {
		span := p.tracer.Root("benchmark", "probe."+name, "")
		t0 := time.Now()
		err := fn()
		d := time.Since(t0).Seconds()
		span.End()
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return
		}
		vals = append(vals, conv(d))
	}
	p.m.put(name, value{Value: median(vals), Base: base})
}

// runProbes brings up a small idle stack and measures every probe metric.
// div shrinks every byte and iteration count for the smoke test; the
// benchmark itself passes 1.
func runProbes(m *metrics, tracer *trace.Tracer, seed uint64, dir string, div int) error {
	var (
		// Whole events: the one dataset file and chirp bulk payload, the kernel input.
		fileBytes   = max(probeChunk, 32<<20/div) / probeEvent * probeEvent
		kernelBytes = max(probeEvent, 16<<20/div) / probeEvent * probeEvent
		ops         = max(2, 200/div)
	)
	st, err := deploy.Start(deploy.Options{
		Files: 1, LumisPerFile: 1, EventsPerFile: fileBytes / probeEvent, EventBytes: probeEvent,
		Workers: 1, CoresPerWorker: slots, Seed: seed, ScratchDir: filepath.Join(dir, "stack"),
	})
	if err != nil {
		return err
	}
	defer st.Close()
	p := &prober{m: m, tracer: tracer}

	// hepsim: the kernel alone.
	k, err := hepsim.NewKernel(probeEvent, 1)
	if err != nil {
		return err
	}
	events := k.GenerateEvents(kernelBytes/probeEvent, stats.NewRand(seed))
	p.mbps("hepsim.process_mbps", kernelBytes, func() error {
		if _, n := k.ProcessAll(events); n == 0 {
			return fmt.Errorf("no events processed")
		}
		return nil
	})
	p.mbps("hepsim.generate_mbps", kernelBytes, func() error {
		k.GenerateEvents(kernelBytes/probeEvent, stats.NewRand(seed))
		return nil
	})

	// wq: the dispatch plane with a no-op executor on the workloads' two
	// slots, the ceiling of tasks/s at this load shape.
	loopTasks := 2 * ops
	p.measure("wq.loopback_tasks_per_s", fmt.Sprintf("%d tasks", loopTasks),
		func(d float64) float64 { return float64(loopTasks) / d },
		func() error {
			_, err := wq.RunScaleLoopback(1, slots, loopTasks, false)
			return err
		})

	// xrootd: open, chunked sequential ReadAt (streaming), FetchTo (staging).
	lfn := st.Dataset.Files[0].LFN
	xcl := &xrootd.Client{Redirector: st.Redirector}
	p.each("xrootd.open_us", ops, 1e6, func(int) error {
		f, err := xcl.Open(lfn)
		if err != nil {
			return err
		}
		return f.Close()
	})
	chunk := make([]byte, probeChunk)
	p.mbps("xrootd.readat_mbps", fileBytes, func() error {
		f, err := xcl.Open(lfn)
		if err != nil {
			return err
		}
		defer f.Close()
		for off := 0; off < fileBytes; {
			n, err := f.ReadAt(chunk, int64(off))
			if err != nil || n == 0 {
				return fmt.Errorf("read at %d: %d bytes, %v", off, n, err)
			}
			off += n
		}
		return nil
	})
	p.mbps("xrootd.fetchto_mbps", fileBytes, func() error {
		_, err := xcl.FetchTo(lfn, io.Discard)
		return err
	})

	// chirp: the stage-out put of a tiny output, and bulk put and get.
	pool := chirp.NewPool(chirp.PoolOptions{Addr: st.ChirpSrv.Addr(), Size: 1})
	defer pool.Close()
	small := make([]byte, 256)
	puts := 0 // every put a new path, as every task output is
	p.each("chirp.put_small_us", ops, 1e6, func(int) error {
		puts++
		return pool.PutFile(fmt.Sprintf("/probe/small-%d", puts), small)
	})
	bulk := k.GenerateEvents(fileBytes/probeEvent, stats.NewRand(seed+1))
	p.mbps("chirp.put_mbps", fileBytes, func() error {
		return pool.Do(func(c *chirp.Client) error {
			return c.PutFileFrom("/probe/bulk", bytes.NewReader(bulk), int64(len(bulk)))
		})
	})
	p.mbps("chirp.get_mbps", fileBytes, func() error {
		return pool.Do(func(c *chirp.Client) error {
			_, err := c.GetFileTo("/probe/bulk", io.Discard)
			return err
		})
	})

	// squid and frontier: a conditions payload through the proxy. A run
	// number not asked for before is a miss; asking again is a hit.
	get := func(run int) error {
		resp, err := http.Get(fmt.Sprintf("%s/frontier/payload?run=%d&tag=%s", st.Env.ProxyURL, run, st.Env.ConditionsTag))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	nextRun := 1000
	p.each("squid.miss_us", ops, 1e6, func(int) error {
		nextRun++
		return get(nextRun)
	})
	p.each("squid.hit_us", ops, 1e6, func(int) error { return get(nextRun) })
	fcl := &frontier.Client{Base: st.Env.ProxyURL}
	p.each("frontier.fetch_us", ops, 1e6, func(int) error {
		_, err := fcl.Fetch(st.Env.ConditionsTag, nextRun)
		return err
	})

	// parrot: a task's software set-up against an empty and a full cache.
	warm := func(c *parrot.Cache) error {
		inst, err := c.Instance("probe")
		if err != nil {
			return err
		}
		mount, err := parrot.NewMount(st.Env.ProxyURL, st.Env.Repo, inst, nil)
		if err != nil {
			return err
		}
		_, err = mount.WarmRelease(st.Env.ReleasePath)
		return err
	}
	fresh := 0
	p.each("parrot.warm_cold_ms", 1, 1e3, func(int) error {
		fresh++
		c, err := parrot.NewCache(filepath.Join(dir, fmt.Sprintf("parrot-cold-%d", fresh)), parrot.ModeAlien)
		if err != nil {
			return err
		}
		return warm(c)
	})
	p.each("parrot.warm_hot_ms", max(2, ops/10), 1e3, func(int) error { return warm(st.Env.Cache) })

	// hdfs: the storage cluster behind a Hadoop-backed storage element.
	cluster, err := hdfs.NewCluster(3, 2, 1<<20)
	if err != nil {
		return err
	}
	p.mbps("hdfs.write_mbps", kernelBytes, func() error { return cluster.WriteFile("/probe/file", events) })
	p.mbps("hdfs.read_mbps", kernelBytes, func() error {
		_, err := cluster.ReadFile("/probe/file")
		return err
	})

	// store and monitor: the driver's per-tasklet and per-task bookkeeping.
	db, err := store.Open(filepath.Join(dir, "probe-db"))
	if err != nil {
		return err
	}
	defer db.Close()
	row := []byte(`{"state":"done"}`)
	p.each("store.put_us", 10*ops, 1e6, func(i int) error {
		return db.Put("wf:probe:tasklets", fmt.Sprintf("%010d", i), row)
	})
	mon := monitor.New()
	rec := monitor.TaskRecord{Kind: "analysis", Metrics: map[string]float64{"events": 1}}
	p.each("monitor.add_ns", 500*ops, 1e9, func(i int) error {
		if i == 0 {
			mon = monitor.New() // every repetition grows its own record slice
		}
		rec.TaskID = int64(i)
		mon.Add(rec)
		return nil
	})
	return p.err
}
