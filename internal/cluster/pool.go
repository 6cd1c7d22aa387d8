package cluster

import (
	"fmt"
	"sync"
	"time"

	"lobster/internal/stats"
	"lobster/internal/wq"
)

// PoolConfig configures a real-plane opportunistic worker pool: actual
// wq.Worker processes (goroutines) joined to a master and evicted by a
// batch-system stand-in.
type PoolConfig struct {
	// MasterAddr is the wq master workers connect to.
	MasterAddr string
	// Workers is the target number of concurrently-running workers.
	Workers int
	// CoresPerWorker matches the paper's 8-core workers by default.
	CoresPerWorker int
	// Registry is the executor registry workers run with.
	Registry wq.Registry
	// Lifetime draws each worker's time-to-eviction in *real* seconds.
	// Nil disables eviction (a dedicated pool).
	Lifetime stats.Dist
	// Replace controls whether evicted workers are replaced (the batch
	// system restarting pilots as slots free up).
	Replace bool
	// ScratchDir is the parent for per-worker directories.
	ScratchDir string
}

// Pool manages opportunistic workers against a master.
type Pool struct {
	cfg PoolConfig
	rng *stats.Rand

	mu       sync.Mutex
	workers  map[int]*wq.Worker
	nextID   int
	evicted  int
	started  int
	stopping bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewPool starts the pool. Workers connect immediately.
func NewPool(cfg PoolConfig, rng *stats.Rand) (*Pool, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("cluster: pool needs workers > 0")
	}
	if cfg.CoresPerWorker <= 0 {
		cfg.CoresPerWorker = 8
	}
	p := &Pool{cfg: cfg, rng: rng, workers: make(map[int]*wq.Worker), stopCh: make(chan struct{})}
	for i := 0; i < cfg.Workers; i++ {
		if err := p.launch(); err != nil {
			p.Stop()
			return nil, err
		}
	}
	return p, nil
}

// launch starts one worker and, if eviction is enabled, its eviction timer.
func (p *Pool) launch() error {
	p.mu.Lock()
	if p.stopping {
		p.mu.Unlock()
		return nil
	}
	id := p.nextID
	p.nextID++
	p.started++
	var life time.Duration
	if p.cfg.Lifetime != nil {
		life = time.Duration(p.cfg.Lifetime.Sample(p.rng) * float64(time.Second))
	}
	p.mu.Unlock()

	name := fmt.Sprintf("pool-worker-%d", id)
	w, err := wq.NewWorker(p.cfg.MasterAddr, name, p.cfg.CoresPerWorker,
		fmt.Sprintf("%s/%s", p.cfg.ScratchDir, name), p.cfg.Registry, nil)
	if err != nil {
		return fmt.Errorf("cluster: launching %s: %w", name, err)
	}
	p.mu.Lock()
	if p.stopping {
		p.mu.Unlock()
		w.Close()
		return nil
	}
	p.workers[id] = w
	p.mu.Unlock()

	if p.cfg.Lifetime != nil {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			timer := time.NewTimer(life)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-p.stopCh:
				return
			}
			p.mu.Lock()
			w, ok := p.workers[id]
			if !ok || p.stopping {
				p.mu.Unlock()
				return
			}
			delete(p.workers, id)
			p.evicted++
			replace := p.cfg.Replace && !p.stopping
			p.mu.Unlock()
			w.Evict()
			if replace {
				p.launch()
			}
		}()
	}
	return nil
}

// Evictions returns the number of evictions so far.
func (p *Pool) Evictions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evicted
}

// Started returns the total number of workers ever launched.
func (p *Pool) Started() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.started
}

// Stop evicts everything and waits for bookkeeping goroutines.
func (p *Pool) Stop() {
	p.mu.Lock()
	if !p.stopping {
		p.stopping = true
		close(p.stopCh)
	}
	ws := make([]*wq.Worker, 0, len(p.workers))
	for _, w := range p.workers {
		ws = append(ws, w)
	}
	p.workers = make(map[int]*wq.Worker)
	p.mu.Unlock()
	for _, w := range ws {
		w.Close()
	}
	p.wg.Wait()
}
